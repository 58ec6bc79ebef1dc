// gact_sweep — expand a scenario family over a parameter grid and solve
// every cell through Engine::solve_batch.
//
//   gact_sweep --preset quick                    # the standard ~22-cell
//                                                # grid (every family at
//                                                # cheap points)
//   gact_sweep --family lt --param n=1..2 --param t=1,2 \
//              --param model=wf,res1             # explicit Cartesian grid
//   gact_sweep --family wf-is                    # omitted axes default to
//                                                # the full canonical range
//   gact_sweep --list-families                   # schemas, nothing solved
//   gact_sweep ... --threads 4                   # shard width (default 2)
//   gact_sweep ... --json                        # one deterministic JSON
//                                                # document on stdout
//   gact_sweep ... --stats                       # scheduler counters
//                                                # (exec/exec_stats.h) on
//                                                # STDERR after the sweep
//
// Axis syntax (engine/scenario_family.h parse_grid_axis): `n=1..3` is an
// inclusive range, `t=1,2` an explicit list, `model=wf,res1` the model
// axis. Cells failing cross-parameter validation (e.g. lt with t > n in
// a rectangular grid) are skipped and listed — never silently dropped.
//
// Determinism is part of the contract, pinned by tools/sweep_smoke.cmake:
// the same grid yields byte-identical --json output across runs and
// across --threads values. Two design choices make that true:
//  * no shared nogood pool — cross-cell learning reorders backtrack
//    counts depending on which cell finishes first;
//  * the JSON carries verdicts, depths, backtrack counts, and witness
//    digests, but no wall-clock timings (those go to the human table
//    only).
//
// Exit codes (pinned by tools/exit_codes_e2e.cmake, aligned with the
// other CLIs):
//   0  the sweep completed — every verdict, including unsolvable and
//      unsupported, is an answer, not a failure
//   2  usage error (unknown family, malformed axis, unknown flag)
//   3  internal error (exception during solve or reporting)
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/report_json.h"
#include "engine/scenario_registry.h"
#include "exec/scheduler.h"
#include "util/cli.h"

namespace {

using namespace gact;

int usage_error(const std::string& message) {
    std::cerr << "usage error: " << message << "\n"
              << "usage: gact_sweep (--preset quick | --family KEY"
                 " [--param AXIS=SPEC]...) [--threads N] [--json]"
                 " [--stats]\n"
              << "       gact_sweep --list-families\n"
              << "axis syntax: n=1..3 (range), t=1,2 (list), "
                 "model=wf,res1 (model axis)\n";
    return 2;
}

int list_families(const engine::ScenarioRegistry& registry) {
    std::cout << "scenario families (any in-range name is a scenario):\n"
              << registry.grammar_help();
    return 0;
}

/// Recover the parameter point from a cell's canonical name, for the
/// structured JSON row. Every expanded cell carries a canonical family
/// name, so this lookup cannot fail on sweep output; names that parse
/// nowhere (defensive) just omit the fields.
void attach_params(const engine::ScenarioRegistry& registry,
                   const std::string& name, util::Json& cell) {
    for (const engine::ScenarioFamily& f : registry.families()) {
        if (!f.claims(name)) continue;
        const auto inst = f.parse(name);
        if (!inst.has_value()) return;
        cell.set("family", f.key());
        util::Json params = util::Json::object();
        for (std::size_t i = 0; i < f.params().size(); ++i) {
            params.set(f.params()[i].name,
                       static_cast<std::int64_t>(inst->params[i]));
        }
        cell.set("params", std::move(params));
        if (!inst->model_token.empty()) {
            std::string model = inst->model_token;
            for (const engine::FamilyModel& m : f.models()) {
                if (m.token == inst->model_token && m.has_arg) {
                    model += std::to_string(inst->model_arg);
                }
            }
            cell.set("model", model);
        }
        return;
    }
}

/// --stats: the shared scheduler's counters after the sweep. STDERR on
/// purpose — stdout (table or --json) is pinned byte-identical across
/// runs and thread counts by tools/sweep_smoke.cmake, and these
/// counters are timing-dependent.
void print_exec_stats() {
    const exec::ExecStats s = exec::Scheduler::shared().stats();
    std::fprintf(stderr,
                 "exec: %zu workers, %zu tasks (%zu stolen, %zu overflow, "
                 "%zu helped), queue depth %zu\n",
                 s.workers, s.tasks_executed, s.tasks_stolen,
                 s.tasks_overflow, s.tasks_helped, s.queue_depth);
    std::fprintf(stderr, "task latency (log2 us buckets):");
    for (std::size_t b = 0; b < exec::ExecStats::kLatencyBuckets; ++b) {
        if (s.latency_log2_us[b] == 0) continue;
        std::fprintf(stderr, " [2^%zu us]=%zu", b, s.latency_log2_us[b]);
    }
    std::fprintf(stderr, "\n");
}

void print_table(const std::vector<engine::SolveReport>& reports,
                 const std::vector<std::string>& skipped) {
    std::size_t name_width = 8;
    for (const auto& r : reports) {
        name_width = std::max(name_width, r.scenario.size());
    }
    std::printf("%-*s  %-20s  %5s  %10s  %-16s  %9s\n",
                static_cast<int>(name_width), "scenario", "verdict",
                "depth", "backtracks", "digest", "millis");
    for (const auto& r : reports) {
        const std::string digest =
            r.witness.has_value()
                ? engine::witness_digest_hex(*r.witness)
                : std::string("-");
        std::printf("%-*s  %-20s  %5d  %10zu  %-16s  %9.1f\n",
                    static_cast<int>(name_width), r.scenario.c_str(),
                    engine::to_string(r.verdict), r.witness_depth,
                    r.total_backtracks, digest.c_str(), r.total_millis());
    }
    for (const std::string& name : skipped) {
        std::printf("%-*s  %-20s\n", static_cast<int>(name_width),
                    name.c_str(), "(skipped: invalid cell)");
    }
}

}  // namespace

int main(int argc, char** argv) {
    const engine::ScenarioRegistry& registry =
        engine::ScenarioRegistry::standard();
    std::string family;
    std::string preset;
    engine::ParamGrid grid;
    unsigned threads = 2;
    bool json_output = false;
    bool exec_stats = false;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--list-families") == 0) {
            return list_families(registry);
        }
        if (std::strcmp(argv[i], "--json") == 0) {
            json_output = true;
            continue;
        }
        if (std::strcmp(argv[i], "--stats") == 0) {
            exec_stats = true;
            continue;
        }
        if (std::strcmp(argv[i], "--preset") == 0 && i + 1 < argc) {
            preset = argv[++i];
            continue;
        }
        if (std::strcmp(argv[i], "--family") == 0 && i + 1 < argc) {
            family = argv[++i];
            continue;
        }
        if (std::strcmp(argv[i], "--param") == 0 && i + 1 < argc) {
            std::string error;
            const auto axis = engine::parse_grid_axis(argv[++i], &error);
            if (!axis.has_value()) return usage_error(error);
            grid.push_back(*axis);
            continue;
        }
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            if (!util::parse_positive_count(argv[++i], threads)) {
                return usage_error(std::string("bad --threads '") + argv[i] +
                                   "' (a positive integer)");
            }
            continue;
        }
        return usage_error(std::string("unknown argument '") + argv[i] +
                           "'");
    }
    if (!preset.empty() && preset != "quick") {
        return usage_error("unknown preset '" + preset +
                           "' (only 'quick')");
    }
    if (preset.empty() == family.empty()) {
        return usage_error(
            "pick exactly one of --preset quick or --family KEY");
    }
    if (!preset.empty() && !grid.empty()) {
        return usage_error("--param only applies to --family sweeps");
    }

    std::vector<engine::Scenario> scenarios;
    std::vector<std::string> skipped;
    if (!preset.empty()) {
        scenarios = registry.quick_grid();
    } else {
        std::string error;
        scenarios = registry.expand(family, grid, &error, &skipped);
        if (!error.empty()) {
            std::cerr << "usage error: " << error << "\n";
            if (registry.family(family) == nullptr) {
                std::cerr << "families:\n" << registry.grammar_help();
            }
            return 2;
        }
        if (scenarios.empty()) {
            return usage_error("the grid expanded to zero valid cells");
        }
    }

    try {
        // Deliberately no shared nogood pool: cross-cell learning makes
        // backtrack counts depend on completion order, and this tool
        // pins byte-identical output across thread counts.
        const engine::Engine engine;
        const std::vector<engine::SolveReport> reports =
            engine.solve_batch(scenarios, threads);

        std::size_t verdict_counts[4] = {0, 0, 0, 0};
        for (const auto& r : reports) {
            ++verdict_counts[static_cast<int>(r.verdict)];
        }

        if (json_output) {
            util::Json out = util::Json::object();
            util::Json sweep = util::Json::object();
            if (!preset.empty()) {
                sweep.set("preset", preset);
            } else {
                sweep.set("family", family);
            }
            out.set("sweep", std::move(sweep));
            util::Json cells = util::Json::array();
            for (const auto& r : reports) {
                util::Json cell = util::Json::object();
                cell.set("name", r.scenario);
                attach_params(registry, r.scenario, cell);
                cell.set("verdict", engine::to_string(r.verdict));
                cell.set("detail", r.detail);
                cell.set("witness_depth",
                         static_cast<std::int64_t>(r.witness_depth));
                cell.set("backtracks", r.total_backtracks);
                if (r.witness.has_value()) {
                    cell.set("witness_digest",
                             engine::witness_digest_hex(*r.witness));
                }
                cells.push_back(std::move(cell));
            }
            out.set("cells", std::move(cells));
            util::Json skipped_json = util::Json::array();
            for (const std::string& name : skipped) {
                skipped_json.push_back(name);
            }
            out.set("skipped_invalid", std::move(skipped_json));
            util::Json summary = util::Json::object();
            summary.set("cells", reports.size());
            summary.set("solvable", verdict_counts[0]);
            summary.set("unsolvable-to-depth", verdict_counts[1]);
            summary.set("budget-exhausted", verdict_counts[2]);
            summary.set("unsupported", verdict_counts[3]);
            out.set("summary", std::move(summary));
            std::cout << out.dump() << "\n";
        } else {
            print_table(reports, skipped);
            std::printf(
                "\n%zu cells: %zu solvable, %zu unsolvable-to-depth, "
                "%zu budget-exhausted, %zu unsupported",
                reports.size(), verdict_counts[0], verdict_counts[1],
                verdict_counts[2], verdict_counts[3]);
            if (!skipped.empty()) {
                std::printf(", %zu invalid cells skipped",
                            skipped.size());
            }
            std::printf("\n");
        }
        if (exec_stats) print_exec_stats();
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 3;
    }
}
