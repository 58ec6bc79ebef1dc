// gact — the command-line front end. Every subcommand asks Theorem 6.1's
// one question (is task T solvable in model M?) or serves it:
//
//   gact solve [SCENARIO]...   solve registry scenarios (default: the
//                              quick registry), batched and sharded
//   gact sweep ...             expand a scenario family over a parameter
//                              grid and solve every cell
//   gact fuzz ...              run solved witnesses as protocols under
//                              randomized admissible schedules
//   gact serve ...             the long-running solve server
//   gact client ...            one request to a running server
//   gact list                  registered scenarios and family grammars
//
// `usage()` below lists every flag. A scenario name is a registered
// alias or any in-range canonical family name (engine/scenario_family.h).
//
// Exit codes (pinned by tools/exit_codes_e2e.cmake):
//   0  the command completed and its answer is clean. An unsolvable or
//      unsupported verdict is an answer, and so is a fuzz scenario
//      skipped for want of a witness; serve exits 0 after a clean drain
//   1  a negative finding: a Definition 4.1 violation (fuzz), an
//      ok:false server reply (client), a server that could not start
//      (serve)
//   2  usage error: a missing or unknown subcommand or argument, a flag
//      without its value, a malformed or out-of-range number, an unknown
//      scenario or family, contradictory flags
//   3  internal or transport error: an exception escaped, or the
//      server's reply never arrived (client)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/report_json.h"
#include "engine/scenario_registry.h"
#include "exec/scheduler.h"
#include "runtime/fuzz.h"
#include "service/client.h"
#include "service/server.h"
#include "util/cli.h"

namespace {

using namespace gact;
using util::ArgCursor;
using util::UsageError;

const engine::ScenarioRegistry& registry() {
    return engine::ScenarioRegistry::standard();
}

/// Resolve a scenario name; an unknown one is a usage error carrying the
/// registry's diagnostic, which cites the family grammar: a near-miss
/// name ("lt-2-9-res1") gets its family's ranges, anything else the full
/// grammar summary plus the registered names.
engine::Scenario resolve(const std::string& name) {
    std::string why;
    auto scenario = registry().find(name, &why);
    if (!scenario.has_value()) {
        throw UsageError("unknown scenario '" + name + "': " + why +
                         "\n(gact list for descriptions)");
    }
    return std::move(*scenario);
}

/// Print the named command's usage on stderr; returns `exit_code`.
int print_usage(const char* name, int exit_code);

// ------------------------------------------------------------------ solve
//
// By default one SharedNogoodPool is wired into every selected scenario,
// so scenarios posing the same CSP (e.g. lt-2-1-res1 and lt-2-1-adv1,
// which differ only in their model) share learned conflicts; verdicts and
// witnesses are unaffected, only the search effort shrinks.
// --pool-file extends that sharing across processes: the pool is loaded
// before the batch (a missing file is a cold start; a corrupted or
// version-mismatched one is reported and ignored) and saved after, so a
// fresh process reproduces the bit-identical witness at 0 backtracks.
// The engine itself does no file I/O.

void print_report(const engine::SolveReport& report) {
    std::cout << "  " << report.summary() << "\n";
    if (report.witness.has_value()) {
        // The same digest `gact serve` reports, so "bit-identical
        // witness" can be asserted across the CLI and the service by
        // comparing one hex line.
        std::cout << "      witness digest: "
                  << engine::witness_digest_hex(*report.witness) << " ("
                  << report.witness->size() << " vertices)\n";
    }
    for (const engine::StageTiming& t : report.timings) {
        std::cout << "      " << t.stage << ": " << t.millis << " ms\n";
    }
    // Printed only when the solve learned something: GC behaviour is
    // otherwise invisible from the verdict line.
    const core::SearchCounters& c = report.counters;
    if (c.nogoods_recorded != 0 || c.nogoods_evicted != 0) {
        std::cout << "      nogoods: " << c.nogoods_recorded
                  << " recorded, " << c.nogoods_evicted << " evicted, "
                  << c.nogood_prunings << " prunings\n";
    }
}

int run_solve(ArgCursor& args) {
    unsigned threads = 2;
    bool no_pool = false;
    bool json_output = false;
    std::string pool_file;
    std::vector<engine::Scenario> scenarios;
    while (!args.done()) {
        if (args.flag("--json", json_output) ||
            args.flag("--no-pool", no_pool) ||
            args.value("--pool-file", pool_file) ||
            args.count("--threads", threads, 1, exec::kMaxWorkers)) {
            continue;
        }
        scenarios.push_back(resolve(args.operand()));
    }
    if (!pool_file.empty() && no_pool) {
        throw UsageError("--pool-file requires the pool that --no-pool "
                         "disables; drop one of the two flags");
    }
    if (scenarios.empty()) scenarios = registry().quick();

    // One pool for the whole run: scoping by problem identity keeps
    // unrelated scenarios apart, and nogood reuse is verdict-preserving.
    std::shared_ptr<core::SharedNogoodPool> pool;
    if (!no_pool) {
        pool = std::make_shared<core::SharedNogoodPool>();
        // A missing file is the silent first-run cold start; a present
        // but unreadable one is warned about (the warm start the user
        // asked for is not happening).
        const std::string err =
            pool_file.empty() ? "" : pool->load_if_present(pool_file);
        if (!err.empty()) {
            std::cerr << "warning: pool file rejected (" << err
                      << ") — starting cold\n";
        }
        for (engine::Scenario& s : scenarios) s.options.nogood_pool = pool;
    }

    if (!json_output) {
        std::cout << "== gact engine: " << scenarios.size() << " scenario"
                  << (scenarios.size() == 1 ? "" : "s") << " on " << threads
                  << " thread" << (threads == 1 ? "" : "s") << " ==\n";
    }
    const auto reports = engine::Engine().solve_batch(scenarios, threads);
    std::size_t solvable = 0;
    for (const auto& report : reports) {
        if (json_output) {
            // One report object per line: the schema the server puts
            // under "report" in its replies.
            std::cout << engine::report_to_json(report).dump() << "\n";
        } else {
            print_report(report);
        }
        if (report.solvable()) ++solvable;
    }
    if (!json_output) {
        std::cout << "\n" << solvable << "/" << reports.size()
                  << " scenarios solvable in their models\n";
    }

    if (!pool_file.empty()) {
        const std::string err = pool->save(pool_file);
        if (!err.empty()) {
            std::cerr << "warning: pool save failed (" << err << ")\n";
        } else if (!json_output) {
            // published() counts every accepted entry, loaded + newly
            // learned: the pool's whole content.
            std::cout << "pool saved to " << pool_file << " ("
                      << pool->published() << " nogoods)\n";
        }
    }
    return 0;
}

// ------------------------------------------------------------------ sweep
//
// Determinism is the contract, pinned by tools/sweep_smoke.cmake: the
// same grid yields byte-identical --json output across runs and across
// --threads values. So the sweep shares no nogood pool (cross-cell
// learning makes backtrack counts depend on completion order), and the
// JSON carries verdicts, depths, backtrack counts and witness digests but
// no wall-clock timings (those go to the human table only). Cells failing
// cross-parameter validation (e.g. lt with t > n in a rectangular grid)
// are skipped and listed, never silently dropped.

/// Recover the parameter point from a cell's canonical name, for the
/// structured JSON row. Every expanded cell carries a canonical family
/// name, so this lookup cannot fail on sweep output; names that parse
/// nowhere (defensive) just omit the fields.
void attach_params(const std::string& name, util::Json& cell) {
    for (const engine::ScenarioFamily& f : registry().families()) {
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
/// purpose: stdout is pinned byte-identical across runs and thread
/// counts, and these counters are timing-dependent.
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

util::Json sweep_json(const std::string& preset, const std::string& family,
                      const std::vector<engine::SolveReport>& reports,
                      const std::vector<std::string>& skipped,
                      const std::size_t (&verdict_counts)[4]) {
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
        attach_params(r.scenario, cell);
        cell.set("verdict", engine::to_string(r.verdict));
        cell.set("detail", r.detail);
        cell.set("witness_depth", static_cast<std::int64_t>(r.witness_depth));
        cell.set("backtracks", r.total_backtracks);
        if (r.witness.has_value()) {
            cell.set("witness_digest", engine::witness_digest_hex(*r.witness));
        }
        cells.push_back(std::move(cell));
    }
    out.set("cells", std::move(cells));
    util::Json skipped_json = util::Json::array();
    for (const std::string& name : skipped) skipped_json.push_back(name);
    out.set("skipped_invalid", std::move(skipped_json));
    util::Json summary = util::Json::object();
    summary.set("cells", reports.size());
    summary.set("solvable", verdict_counts[0]);
    summary.set("unsolvable-to-depth", verdict_counts[1]);
    summary.set("budget-exhausted", verdict_counts[2]);
    summary.set("unsupported", verdict_counts[3]);
    out.set("summary", std::move(summary));
    return out;
}

int run_sweep(ArgCursor& args) {
    std::string family;
    std::string preset;
    std::string axis;
    engine::ParamGrid grid;
    unsigned threads = 2;
    bool json_output = false;
    bool exec_stats = false;
    while (!args.done()) {
        if (args.value("--param", axis)) {
            std::string error;
            const auto parsed = engine::parse_grid_axis(axis, &error);
            if (!parsed.has_value()) throw UsageError(error);
            grid.push_back(*parsed);
        } else if (!args.flag("--json", json_output) &&
                   !args.flag("--stats", exec_stats) &&
                   !args.value("--preset", preset) &&
                   !args.value("--family", family) &&
                   !args.count("--threads", threads, 1, exec::kMaxWorkers)) {
            args.unknown();
        }
    }
    if (!preset.empty() && preset != "quick") {
        throw UsageError("unknown preset '" + preset + "' (only 'quick')");
    }
    if (preset.empty() == family.empty()) {
        throw UsageError("pick exactly one of --preset quick or --family KEY");
    }
    if (!preset.empty() && !grid.empty()) {
        throw UsageError("--param only applies to --family sweeps");
    }

    std::vector<engine::Scenario> scenarios;
    std::vector<std::string> skipped;
    if (!preset.empty()) {
        scenarios = registry().quick_grid();
    } else {
        std::string error;
        scenarios = registry().expand(family, grid, &error, &skipped);
        if (!error.empty()) {
            if (registry().family(family) == nullptr) {
                error += "\nfamilies:\n" + registry().grammar_help();
            }
            throw UsageError(error);
        }
        if (scenarios.empty()) {
            throw UsageError("the grid expanded to zero valid cells");
        }
    }

    const std::vector<engine::SolveReport> reports =
        engine::Engine().solve_batch(scenarios, threads);
    std::size_t verdict_counts[4] = {0, 0, 0, 0};
    for (const auto& r : reports) {
        ++verdict_counts[static_cast<int>(r.verdict)];
    }
    if (json_output) {
        std::cout << sweep_json(preset, family, reports, skipped,
                                verdict_counts)
                         .dump()
                  << "\n";
    } else {
        print_table(reports, skipped);
        std::printf(
            "\n%zu cells: %zu solvable, %zu unsolvable-to-depth, "
            "%zu budget-exhausted, %zu unsupported",
            reports.size(), verdict_counts[0], verdict_counts[1],
            verdict_counts[2], verdict_counts[3]);
        if (!skipped.empty()) {
            std::printf(", %zu invalid cells skipped", skipped.size());
        }
        std::printf("\n");
    }
    if (exec_stats) print_exec_stats();
    return 0;
}

// ------------------------------------------------------------------- fuzz
//
// Per scenario one line is printed:
//   <name>: <N> schedules, <V> violations, <R> schedules/sec, digest <hex>
// and every recorded violation is followed by its shrunk, replayable
// counterexample (seed + iteration + partition trace).

/// Upper bound on --max-prefix and --slack: both add rounds to every
/// schedule, and past this a campaign is no longer a fuzz run.
constexpr std::uint32_t kMaxRounds = 1000;

/// Upper bound on --iters: runtime::fuzz keeps one result slot per
/// iteration, so an unbounded count is an unbounded allocation.
constexpr std::size_t kMaxIterations = 10'000'000;

void print_violation(std::uint64_t seed, const runtime::FuzzViolation& v) {
    std::cout << "    VIOLATION at seed " << seed << " iteration "
              << v.iteration << " (omega " << v.omega_index << "): "
              << v.detail << "\n"
              << "      schedule: " << v.schedule.to_string() << "\n"
              << "      shrunk:   " << v.shrunk.to_string() << "\n";
}

int run_fuzz(ArgCursor& args) {
    std::vector<engine::Scenario> scenarios;
    runtime::FuzzConfig config;
    config.iterations = 200;
    config.threads = 2;
    double seconds = 0.0;
    std::string name;
    while (!args.done()) {
        if (args.value("--scenario", name)) {
            scenarios.push_back(resolve(name));
        } else if (!args.count("--seed", config.seed) &&
                   !args.count("--iters", config.iterations, 0,
                               kMaxIterations) &&
                   !args.count("--threads", config.threads, 1,
                               exec::kMaxWorkers) &&
                   !args.decimal("--seconds", seconds) &&
                   !args.count("--slack", config.horizon_slack, 0,
                               kMaxRounds) &&
                   !args.count("--max-prefix", config.max_prefix_rounds, 0,
                               kMaxRounds)) {
            args.unknown();
        }
    }
    if (scenarios.empty()) scenarios = registry().quick();

    const engine::Engine engine;
    bool any_violation = false;
    for (const engine::Scenario& scenario : scenarios) {
        const engine::SolveReport report = engine.solve(scenario);

        using clock = std::chrono::steady_clock;
        const auto start = clock::now();
        runtime::FuzzConfig c = config;
        // Time-budgeted soak: run batches with stepped seeds until the
        // budget is spent (at least one batch always runs).
        std::size_t executed = 0;
        std::size_t violation_count = 0;
        std::uint64_t first_digest = 0;
        bool skipped = false;
        std::string skip_summary;
        std::vector<std::pair<std::uint64_t, runtime::FuzzViolation>>
            recorded;
        std::size_t batch = 0;
        double elapsed = 0.0;
        do {
            c.seed = config.seed + batch;
            const runtime::FuzzResult r = runtime::fuzz(scenario, report, c);
            if (batch == 0) {
                skipped = r.skipped;
                skip_summary = r.summary();
                first_digest = r.result_digest;
            }
            executed += r.executed;
            violation_count += r.violation_count;
            for (const auto& v : r.violations) {
                if (recorded.size() < config.max_recorded_violations) {
                    recorded.emplace_back(c.seed, v);
                }
            }
            ++batch;
            elapsed =
                std::chrono::duration<double>(clock::now() - start).count();
        } while (elapsed < seconds && !skipped);

        if (skipped) {
            std::cout << skip_summary << "\n";
            continue;
        }
        const double rate =
            elapsed > 0.0 ? static_cast<double>(executed) / elapsed : 0.0;
        char digest[32];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(first_digest));
        std::cout << scenario.name << ": " << executed << " schedules, "
                  << violation_count << " violations, "
                  << static_cast<long long>(rate) << " schedules/sec, digest "
                  << digest << "\n";
        for (const auto& [seed, v] : recorded) print_violation(seed, v);
        if (violation_count > 0) any_violation = true;
    }
    return any_violation ? 1 : 0;
}

// ------------------------------------------------------------------ serve
//
// Binds a TCP port, keeps one resident nogood pool warm across every
// request, and drains on SIGINT/SIGTERM: stop accepting, finish admitted
// solves, snapshot the pool, exit 0. The wire protocol and threading
// model live in src/service/server.h.

std::string serve_options() {
    return "  --port N             TCP port (default 7461; 0 = ephemeral)\n"
           "  --bind ADDR          bind address (default 127.0.0.1)\n"
           "  --threads N          solve worker threads, 1.." +
           std::to_string(exec::kMaxWorkers) +
           " (default 2)\n"
           "  --queue-depth N      admission queue bound (default 16)\n"
           "  --max-connections N  live-connection bound; accepts beyond\n"
           "                       it are refused (default 256)\n"
           "  --pool-file PATH     load/snapshot the nogood pool here\n"
           "  --snapshot-every S   snapshot period in seconds (default 0:\n"
           "                       only the final shutdown snapshot)\n"
           "  --timeout-ms N       default queue-wait deadline per request,\n"
           "                       0..4294967295 (default 0: none)\n";
}

int run_serve(ArgCursor& args) {
    service::ServiceConfig config;
    config.port = 7461;
    bool help = false;
    while (!args.done()) {
        if (args.flag("--help", help) || args.flag("-h", help)) {
            return print_usage("serve", 0);
        }
        if (!args.count("--port", config.port) &&
            !args.value("--bind", config.bind_address) &&
            !args.count("--threads", config.workers, 1, exec::kMaxWorkers) &&
            !args.count("--queue-depth", config.queue_depth, 1) &&
            !args.count("--max-connections", config.max_connections, 1) &&
            !args.value("--pool-file", config.pool_file) &&
            !args.count("--snapshot-every", config.snapshot_every_seconds) &&
            !args.count("--timeout-ms", config.default_timeout_ms, 0,
                        std::numeric_limits<std::uint32_t>::max())) {
            args.unknown();
        }
    }

    service::SolveServer server(std::move(config));
    const std::string err = server.start();
    if (!err.empty()) {
        std::fprintf(stderr, "gact serve: %s\n", err.c_str());
        return 1;
    }
    if (!server.startup_warning().empty()) {
        std::fprintf(stderr, "gact serve: warning: %s\n",
                     server.startup_warning().c_str());
    }
    // A launcher reads the port (0 = ephemeral) off this line.
    std::printf("gact_serve listening on port %u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    service::install_stop_signal_handlers(server);
    server.wait_until_stop_requested();
    std::printf("gact_serve: draining...\n");
    std::fflush(stdout);
    server.stop();
    service::uninstall_stop_signal_handlers();
    std::printf("gact_serve: stopped\n");
    return 0;
}

// ----------------------------------------------------------------- client
//
// Prints the server's reply JSON to stdout. A transport failure exits 3,
// not 1: the reply never arrived, so 1 would misreport a solver-level
// answer.

int run_client(ArgCursor& args) {
    std::string host = "127.0.0.1";
    std::uint16_t port = 7461;
    std::string command;
    std::string scenario;
    std::uint32_t timeout_ms = 0;
    bool has_timeout = false;
    bool help = false;
    while (!args.done()) {
        if (args.flag("--help", help) || args.flag("-h", help)) {
            return print_usage("client", 0);
        }
        if (args.count("--timeout-ms", timeout_ms)) {
            has_timeout = true;
            continue;
        }
        if (args.value("--host", host) || args.count("--port", port, 1)) {
            continue;
        }
        if (command.empty()) {
            command = args.operand();
        } else if (command == "solve" && scenario.empty()) {
            scenario = args.operand();
        } else {
            args.unknown();
        }
    }
    if (command != "solve" && command != "stats" && command != "list") {
        throw UsageError(command.empty() ? "missing request"
                                         : "unknown request '" + command +
                                               "'");
    }
    if (command == "solve" && scenario.empty()) {
        throw UsageError("solve needs a scenario name");
    }

    util::Json request = util::Json::object();
    request.set("type", util::Json(command));
    if (command == "solve") {
        request.set("scenario", util::Json(scenario));
        if (has_timeout) {
            request.set("timeout_ms",
                        util::Json(static_cast<std::uint64_t>(timeout_ms)));
        }
    }

    service::ServiceClient client;
    std::string err = client.connect(host, port);
    if (!err.empty()) {
        std::fprintf(stderr, "gact client: %s\n", err.c_str());
        return 3;
    }
    const std::optional<util::Json> reply = client.request(request, &err);
    if (!reply.has_value()) {
        std::fprintf(stderr, "gact client: %s\n", err.c_str());
        return 3;
    }
    std::printf("%s\n", reply->dump().c_str());
    const util::Json* ok = reply->find("ok");
    if (ok != nullptr && ok->is_bool() && ok->as_bool()) return 0;
    // Surface the server's diagnostic on stderr too: for an unknown
    // scenario it carries the full family grammar, which is unreadable
    // embedded in a one-line JSON dump.
    if (const util::Json* error = reply->find("error")) {
        if (error->is_string()) {
            std::fprintf(stderr, "gact client: server error: %s\n",
                         error->as_string().c_str());
        }
    }
    return 1;
}

// ------------------------------------------------------------------- list

int run_list(ArgCursor& args) {
    if (!args.done()) args.unknown();
    std::cout << "registered scenarios:\n";
    for (const auto& spec : registry().specs()) {
        std::cout << "  " << spec.name << (spec.heavy ? "  [heavy]" : "")
                  << "\n      " << spec.description << "\n";
    }
    std::cout << "scenario families (any in-range name is a scenario):\n"
              << registry().grammar_help();
    return 0;
}

// ------------------------------------------------------------------- main

struct Command {
    const char* name;
    const char* synopsis;
    std::string notes;  ///< printed under the synopsis in its own usage
    int (*run)(ArgCursor&);
};

const std::vector<Command>& commands() {
    static const std::vector<Command> table = {
        {"solve", "[--threads N] [--no-pool | --pool-file PATH] [--json] "
                  "[SCENARIO]...",
         "", run_solve},
        {"sweep", "(--preset quick | --family KEY [--param AXIS=SPEC]...) "
                  "[--threads N] [--json] [--stats]",
         "axis syntax: n=1..3 (range), t=1,2 (list), model=wf,res1 "
         "(model axis)\n",
         run_sweep},
        {"fuzz", "[--scenario NAME]... [--seed N] [--iters N] [--threads N] "
                 "[--seconds S] [--max-prefix R] [--slack R]",
         "", run_fuzz},
        {"serve", "[options]", serve_options(), run_serve},
        {"client", "[--host H] [--port N] "
                   "(solve SCENARIO [--timeout-ms N] | stats | list)",
         "", run_client},
        {"list", "", "", run_list},
    };
    return table;
}

int print_usage(const char* name, int exit_code) {
    for (const Command& c : commands()) {
        if (std::strcmp(c.name, name) == 0) {
            std::cerr << "usage: gact " << c.name << " " << c.synopsis
                      << "\n" << c.notes;
        }
    }
    return exit_code;
}

int usage() {
    std::cerr << "usage: gact <command> [options]\n";
    for (const Command& c : commands()) {
        std::cerr << "  gact " << c.name << " " << c.synopsis << "\n";
    }
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    for (const Command& command : commands()) {
        if (std::strcmp(argv[1], command.name) != 0) continue;
        ArgCursor args(argc, argv, 2);
        try {
            return command.run(args);
        } catch (const UsageError& e) {
            std::cerr << "gact " << command.name << ": " << e.what() << "\n";
            return print_usage(command.name, 2);
        } catch (const std::exception& e) {
            std::cerr << "error: " << e.what() << "\n";
            return 3;
        }
    }
    std::cerr << "unknown command '" << argv[1] << "'\n";
    return usage();
}
