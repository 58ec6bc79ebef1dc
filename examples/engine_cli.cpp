// The engine driver: run any registered (Task, Model) scenario — or the
// whole quick registry, sharded across threads — from the command line.
//
//   example_engine_cli                 # run the quick registry, batched
//   example_engine_cli --list          # list scenarios (nothing built)
//   example_engine_cli --threads 4     # shard width (default 2)
//   example_engine_cli --no-pool       # disable cross-solve nogood reuse
//   example_engine_cli --pool-file learned.pool lt-2-1-res1
//                                      # persist the pool across processes
//   example_engine_cli --json          # machine-readable reports (one
//                                      # JSON object per line, the same
//                                      # schema gact_serve replies with)
//   example_engine_cli lt-2-1-res1 consensus-2-wf   # run by name
//
// --pool-file and --no-pool contradict each other; asking for both is a
// usage error, not a silent precedence.
//
// Exit codes (pinned by tools/exit_codes_e2e.cmake, aligned with
// gact_fuzz and gact_client):
//   0  the batch completed — including unsolvable / budget-exhausted
//      verdicts, which are answers, not failures
//   2  usage error (unknown scenario, contradictory flags, a --threads
//      value that is not a positive integer)
//   3  internal error (exception during solve or reporting)
//
// Every solvability question the other examples answer by hand is one
// registry name here: the Scenario carries the task, the model, and the
// budgets; the SolveReport carries the verdict, the witness, and the
// per-stage timings. By default one SharedNogoodPool is wired into every
// selected scenario, so scenarios posing the same CSP (e.g. lt-2-1-res1
// and lt-2-1-adv, which differ only in their model) and repeated runs
// within the process share learned conflicts — verdicts and witnesses
// are unaffected, only the search effort shrinks.
//
// --pool-file extends that sharing across PROCESSES: the pool is loaded
// from the file before the run (a missing file is a cold start; a
// corrupted or version-mismatched one is reported and ignored) and
// saved back after, so a fresh invocation warm-starts on everything
// earlier invocations learned — the second process reproduces the
// bit-identical witness (compare the printed witness digests) at 0
// backtracks. The load/save happens ONCE here, around the whole batch,
// rather than per solve via EngineOptions::pool_file: the scenarios
// share one pool, and concurrent per-solve saves of one file would
// race.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>

#include "engine/engine.h"
#include "engine/report_json.h"
#include "engine/scenario_registry.h"
#include "util/cli.h"

namespace {

using namespace gact;

void print_report(const engine::SolveReport& report) {
    std::cout << "  " << report.summary() << "\n";
    if (report.witness.has_value()) {
        // engine::witness_digest_hex is the same digest gact_serve
        // reports, so "bit-identical witness" can be asserted across
        // the CLI and the service by comparing one hex line.
        std::cout << "      witness digest: "
                  << engine::witness_digest_hex(*report.witness) << " ("
                  << report.witness->size() << " vertices)\n";
    }
    for (const engine::StageTiming& t : report.timings) {
        std::cout << "      " << t.stage << ": " << t.millis << " ms\n";
    }
    // The nogood-lifecycle counters, printed only when the solve
    // actually learned something: GC behavior is otherwise invisible
    // from the verdict line.
    const core::SearchCounters& c = report.counters;
    if (c.nogoods_recorded != 0 || c.nogoods_evicted != 0) {
        std::cout << "      nogoods: " << c.nogoods_recorded
                  << " recorded, " << c.nogoods_evicted << " evicted, "
                  << c.nogood_prunings << " prunings\n";
    }
}

int list_scenarios() {
    std::cout << "registered scenarios:\n";
    for (const auto& spec : engine::ScenarioRegistry::standard().specs()) {
        std::cout << "  " << spec.name << (spec.heavy ? "  [heavy]" : "")
                  << "\n      " << spec.description << "\n";
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const engine::ScenarioRegistry& registry =
        engine::ScenarioRegistry::standard();
    unsigned threads = 2;
    bool no_pool = false;
    bool json_output = false;
    std::string pool_file;
    std::vector<engine::Scenario> scenarios;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--list") == 0) return list_scenarios();
        if (std::strcmp(argv[i], "--json") == 0) {
            json_output = true;
            continue;
        }
        if (std::strcmp(argv[i], "--no-pool") == 0) {
            no_pool = true;
            continue;
        }
        if (std::strcmp(argv[i], "--pool-file") == 0 && i + 1 < argc) {
            pool_file = argv[++i];
            continue;
        }
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            if (!util::parse_positive_count(argv[++i], threads)) {
                std::cerr << "usage error: bad --threads '" << argv[i]
                          << "' (a positive integer)\n";
                return 2;
            }
            continue;
        }
        std::string why;
        const auto scenario = registry.find(argv[i], &why);
        if (!scenario.has_value()) {
            // The registry's diagnostic cites the family grammar: a
            // near-miss name ("lt-2-9-res1") gets its family's ranges,
            // anything else the full grammar summary plus the
            // registered names.
            std::cerr << "unknown scenario '" << argv[i] << "': " << why
                      << "\n(--list for descriptions)\n";
            return 2;
        }
        scenarios.push_back(*scenario);
    }
    if (!pool_file.empty() && no_pool) {
        // The old behavior silently let --pool-file win; an explicit
        // contradiction deserves an explicit error.
        std::cerr << "usage error: --pool-file requires the pool that "
                     "--no-pool disables; drop one of the two flags\n";
        return 2;
    }
    if (scenarios.empty()) scenarios = registry.quick();
    const bool use_pool = !no_pool;

    try {
    // One pool for the whole run: scoping by problem identity keeps
    // unrelated scenarios apart, and nogood reuse is verdict-preserving.
    std::shared_ptr<core::SharedNogoodPool> pool;
    if (use_pool) {
        pool = std::make_shared<core::SharedNogoodPool>();
        // A missing file is the silent first-run cold start; a present
        // but unreadable/corrupt one is warned about (the warm-start
        // the user asked for is not happening).
        std::error_code ec;
        if (!pool_file.empty() &&
            (std::filesystem::exists(pool_file, ec) || ec)) {
            const std::string err = pool->load(pool_file);
            if (!err.empty()) {
                std::cerr << "warning: pool file rejected (" << err
                          << ") — starting cold\n";
            }
        }
        for (engine::Scenario& s : scenarios) s.options.nogood_pool = pool;
    }

    if (!json_output) {
        std::cout << "== gact engine: " << scenarios.size() << " scenario"
                  << (scenarios.size() == 1 ? "" : "s") << " on " << threads
                  << " thread" << (threads == 1 ? "" : "s") << " ==\n";
    }
    const engine::Engine engine;
    const auto reports = engine.solve_batch(scenarios, threads);
    std::size_t solvable = 0;
    for (const auto& report : reports) {
        if (json_output) {
            // One report object per line — the identical schema the
            // solve service puts under "report" in its replies.
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
        if (err.empty()) {
            // published() counts every accepted entry, loaded + newly
            // learned: the pool's whole content.
            if (!json_output) {
                std::cout << "pool saved to " << pool_file << " ("
                          << pool->published() << " nogoods)\n";
            }
        } else {
            std::cerr << "warning: pool save failed (" << err << ")\n";
        }
    }
    return 0;
    } catch (const std::exception& e) {
        // A throwing solve is an internal error, distinct from both a
        // clean "unsolvable" answer (0) and a usage error (2).
        std::cerr << "error: " << e.what() << "\n";
        return 3;
    }
}
