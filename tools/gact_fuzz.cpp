// The execution fuzzer CLI: solve registry scenarios, then run their
// witnesses as actual protocols under randomized admissible schedules on
// the shared-memory IIS substrate, checking Definition 4.1 per execution
// (runtime/fuzz.h).
//
//   gact_fuzz                              # fuzz the whole quick registry
//   gact_fuzz --list                       # list scenarios, run nothing
//   gact_fuzz --scenario is-2-wf           # one scenario (repeatable)
//   gact_fuzz --seed 7 --iters 1000        # campaign size and replay seed
//   gact_fuzz --threads 4                  # shard executions (results are
//                                          # thread-count independent)
//   gact_fuzz --seconds 10                 # time-budgeted soak: repeat
//                                          # batches until the budget ends
//   gact_fuzz --max-prefix 5 --slack 12    # longer schedule prefixes and
//                                          # execution horizons (0..1000)
//
// Per scenario one line is printed:
//   <name>: <N> schedules, <V> violations, <R> schedules/sec, digest <hex>
// and every recorded violation is followed by its shrunk, replayable
// counterexample (seed + iteration + partition trace).
//
// Exit codes (the tool contract, pinned by tools/exit_codes_e2e.cmake):
//   0  every executed schedule clean (skipped scenarios do not fail)
//   1  at least one Definition 4.1 violation was found
//   2  usage error (unknown flag or scenario, malformed or out-of-range
//      numeric flag)
//   3  internal error (exception during solve or execution)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/scenario_registry.h"
#include "runtime/fuzz.h"
#include "util/cli.h"

namespace {

using namespace gact;

/// Upper bound on --max-prefix and --slack: both add rounds to every
/// schedule, and past this a campaign is no longer a fuzz run.
constexpr std::uint32_t kMaxRounds = 1000;

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--scenario NAME]... [--seed N] [--iters N] "
                 "[--threads N] [--seconds S] [--max-prefix R] "
                 "[--slack R] [--list]\n";
    return 2;
}

/// Report a flag value that failed strict parsing; returns the usage
/// exit code.
int bad_value(const char* argv0, const char* flag, const char* value,
              const char* expected) {
    std::cerr << "bad " << flag << " '" << value << "' (" << expected
              << ")\n";
    return usage(argv0);
}

void print_violation(std::uint64_t seed, const runtime::FuzzViolation& v) {
    std::cout << "    VIOLATION at seed " << seed << " iteration "
              << v.iteration << " (omega " << v.omega_index << "): "
              << v.detail << "\n"
              << "      schedule: " << v.schedule.to_string() << "\n"
              << "      shrunk:   " << v.shrunk.to_string() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::string> names;
    runtime::FuzzConfig config;
    config.iterations = 200;
    config.threads = 2;
    double seconds = 0.0;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--list") == 0) {
            for (const auto& spec :
                 engine::ScenarioRegistry::standard().specs()) {
                std::cout << spec.name << (spec.heavy ? "  [heavy]" : "")
                          << "\n";
            }
            return 0;
        }
        if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
            names.emplace_back(argv[++i]);
            continue;
        }
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            if (!util::parse_count(argv[++i], config.seed)) {
                return bad_value(argv[0], "--seed", argv[i],
                                 "a non-negative 64-bit integer");
            }
            continue;
        }
        if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
            if (!util::parse_count(argv[++i], config.iterations)) {
                return bad_value(argv[0], "--iters", argv[i],
                                 "a non-negative integer");
            }
            continue;
        }
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            if (!util::parse_positive_count(argv[++i], config.threads)) {
                return bad_value(argv[0], "--threads", argv[i],
                                 "a positive integer");
            }
            continue;
        }
        if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
            if (!util::parse_non_negative_decimal(argv[++i], seconds)) {
                return bad_value(argv[0], "--seconds", argv[i],
                                 "a non-negative decimal number");
            }
            continue;
        }
        if (std::strcmp(argv[i], "--slack") == 0 && i + 1 < argc) {
            std::uint32_t slack = 0;
            if (!util::parse_count(argv[++i], slack, 0u, kMaxRounds)) {
                return bad_value(argv[0], "--slack", argv[i],
                                 "an integer in 0..1000");
            }
            config.horizon_slack = slack;
            continue;
        }
        if (std::strcmp(argv[i], "--max-prefix") == 0 && i + 1 < argc) {
            if (!util::parse_count(argv[++i], config.max_prefix_rounds, 0u,
                                   kMaxRounds)) {
                return bad_value(argv[0], "--max-prefix", argv[i],
                                 "an integer in 0..1000");
            }
            continue;
        }
        std::cerr << "unknown argument '" << argv[i] << "'\n";
        return usage(argv[0]);
    }

    try {
        const engine::ScenarioRegistry& registry =
            engine::ScenarioRegistry::standard();
        std::vector<engine::Scenario> scenarios;
        if (names.empty()) {
            scenarios = registry.quick();
        } else {
            for (const std::string& name : names) {
                std::string why;
                const auto s = registry.find(name, &why);
                if (!s.has_value()) {
                    // The registry diagnostic cites the family grammar
                    // (--scenario accepts any canonical family name,
                    // not just the registered aliases).
                    std::cerr << "unknown scenario '" << name
                              << "': " << why << "\n";
                    return 2;
                }
                scenarios.push_back(*s);
            }
        }

        const engine::Engine engine;
        bool any_violation = false;
        for (const engine::Scenario& scenario : scenarios) {
            engine::SolveReport report = engine.solve(scenario);

            using clock = std::chrono::steady_clock;
            const auto start = clock::now();
            runtime::FuzzConfig c = config;
            // Time-budgeted soak: run batches with stepped seeds until
            // the budget is spent (at least one batch always runs).
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
                const runtime::FuzzResult r =
                    runtime::fuzz(scenario, report, c);
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
                elapsed = std::chrono::duration<double>(clock::now() - start)
                              .count();
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
                      << static_cast<long long>(rate)
                      << " schedules/sec, digest " << digest << "\n";
            for (const auto& [seed, v] : recorded) print_violation(seed, v);
            if (violation_count > 0) any_violation = true;
        }
        return any_violation ? 1 : 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 3;
    }
}
