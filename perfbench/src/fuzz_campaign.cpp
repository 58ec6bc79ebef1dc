// fuzz-campaign: runtime::fuzz over one table-rule witness (chr2-2p-wf,
// wait-free) and one landing-rule witness (is-2-of1, general route). The
// solves happen at set-up; a sample is a fixed number of schedules of
// each, single-threaded, so only runtime/ and sm/ are timed. The
// workload seed is the fuzz base seed.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "engine/executable.h"
#include "engine/scenario_registry.h"
#include "goldens.h"
#include "runtime/executor.h"
#include "runtime/fuzz.h"
#include "traced_solve.h"
#include "workloads.h"

namespace perfbench {

using gact::engine::Engine;
using gact::engine::Scenario;
using gact::engine::ScenarioRegistry;
using gact::engine::SolveReport;
using gact::runtime::FuzzConfig;
using gact::runtime::FuzzResult;

namespace {

constexpr const char* kTableScenario = "chr2-2p-wf";
constexpr const char* kLandingScenario = "is-2-of1";
constexpr std::size_t kTableSchedules = 4000;
constexpr std::size_t kLandingSchedules = 400;

struct Witness {
    Scenario scenario;
    SolveReport report;
};

Witness solve_witness(const char* name) {
    std::optional<Scenario> sc = ScenarioRegistry::standard().find(name);
    if (!sc.has_value()) throw std::runtime_error("unknown scenario");
    SolveReport report = Engine{}.solve(*sc);
    return {std::move(*sc), std::move(report)};
}

FuzzConfig fuzz_config(std::uint64_t seed, std::size_t schedules,
                       unsigned threads) {
    FuzzConfig config;
    config.seed = seed;
    config.iterations = schedules;
    config.threads = threads;
    return config;
}

// runtime::fuzz's result digest, rebuilt from its public parts so the
// traced replay can be checked against the real campaign.
std::uint64_t fold(std::uint64_t acc, std::uint64_t word) {
    return gact::runtime::mix_seed(acc ^ (word + 0xd1b54a32d192ed03ULL),
                                   0x2545f4914f6cdd1dULL);
}

std::uint64_t digest_of(const gact::runtime::ExecutionResult& r) {
    std::uint64_t d = 0x243f6a8885a308d3ULL;
    d = fold(d, r.rounds);
    d = fold(d, r.all_decided ? 1 : 0);
    for (const auto& out : r.outputs) {
        d = fold(d, out.has_value() ? 1 + static_cast<std::uint64_t>(*out)
                                    : 0);
    }
    d = fold(d, r.violations.size());
    return d;
}

struct ReplayResult {
    std::uint64_t digest = 0;
    std::size_t violations = 0;
    double rounds = 0;
};

/// runtime::fuzz's single-threaded loop through the same public calls,
/// with a span around each schedule draw and each execution.
ReplayResult traced_fuzz(const Witness& w, const FuzzConfig& config,
                         Tracer& tr, std::uint64_t req, std::int64_t parent,
                         const char* execute_span) {
    const Scenario& sc = w.scenario;
    const gact::tasks::Task& task = sc.task;
    const std::uint32_t n = task.num_processes;
    const auto rule = tr.record("engine.rule_build", req, parent, [&] {
        return gact::engine::make_decision_rule(sc, w.report);
    });
    const bool inputless = task.is_inputless();
    std::vector<gact::topo::Simplex> facets;
    if (!inputless) {
        facets = task.inputs.complex().simplices_of_dimension(
            static_cast<int>(n) - 1);
    }
    const std::size_t base_rounds =
        sc.is_wait_free()
            ? static_cast<std::size_t>(std::max(w.report.witness_depth, 0))
            : sc.options.max_landing_round;
    const std::uint32_t max_prefix =
        sc.is_wait_free() ? config.max_prefix_rounds
                          : std::min(config.max_prefix_rounds,
                                     sc.options.run_prefix_depth);
    const auto generator = tr.record("runtime.generator_init", req, parent, [&] {
        return std::make_unique<gact::runtime::ScheduleGenerator>(
            n, sc.model, max_prefix);
    });

    ReplayResult out;
    out.digest = config.seed;
    for (std::size_t i = 0; i < config.iterations; ++i) {
        gact::runtime::SplitMix64 rng(gact::runtime::mix_seed(config.seed, i));
        const gact::runtime::Schedule s = tr.record(
            "runtime.schedule_gen", req, parent,
            [&] { return generator->next(rng); });
        const std::size_t omega_index =
            facets.empty() ? 0 : rng.below(facets.size());
        std::vector<std::optional<gact::topo::VertexId>> inputs(n);
        gact::topo::Simplex face;
        if (inputless) {
            for (gact::ProcessId p : s.participants().members()) {
                face = face.with(static_cast<gact::topo::VertexId>(p));
            }
        } else {
            const gact::topo::Simplex& omega = facets[omega_index];
            for (gact::ProcessId p = 0; p < n; ++p) {
                inputs[p] = task.inputs.vertex_with_color(omega, p);
            }
            for (gact::ProcessId p : s.participants().members()) {
                face = face.with(*inputs[p]);
            }
        }
        gact::runtime::ExecutionConfig ec;
        ec.horizon = s.prefix.size() + base_rounds + config.horizon_slack;
        ec.stability_tail = config.stability_tail;
        ec.check_views = config.check_views;
        const gact::runtime::ExecutionResult r =
            tr.record(execute_span, req, parent, [&] {
                return gact::runtime::execute(task, *rule, s, inputs,
                                              task.delta.at(face), ec);
            });
        out.digest = fold(out.digest, digest_of(r));
        out.rounds += static_cast<double>(r.rounds);
        if (!r.violations.empty()) ++out.violations;
    }
    return out;
}

}  // namespace

Result run_fuzz_campaign(const RunOptions& o) {
    Result r;
    std::optional<Witness> table;
    std::optional<Witness> landing;
    const auto setup = [&] {
        table.reset();
        landing.reset();
        table = solve_witness(kTableScenario);
        landing = solve_witness(kLandingScenario);
    };
    setup();
    r.note("pinned.fuzz_threads", 1, "threads");
    r.note("fuzz.schedules_per_sample", kTableSchedules + kLandingSchedules,
           "count");

    // Determinism and the pinned goldens: the golden seed's digests, and
    // the workload seed's digests at the pinned thread count (which every
    // sample must reproduce single-threaded).
    const FuzzResult golden_table = gact::runtime::fuzz(
        table->scenario, table->report,
        fuzz_config(goldens::kFuzzGoldenSeed, goldens::kFuzzGoldenIterations, 1));
    const FuzzResult golden_landing = gact::runtime::fuzz(
        landing->scenario, landing->report,
        fuzz_config(goldens::kFuzzGoldenSeed, goldens::kFuzzGoldenIterations, 1));
    r.check(golden_table.clean() &&
                golden_table.result_digest == goldens::kFuzzTableDigest,
            "fuzz-campaign golden " + golden_table.summary());
    r.check(golden_landing.clean() &&
                golden_landing.result_digest == goldens::kFuzzLandingDigest,
            "fuzz-campaign golden " + golden_landing.summary());
    const std::uint64_t table_digest =
        gact::runtime::fuzz(table->scenario, table->report,
                            fuzz_config(o.seed, kTableSchedules, o.threads))
            .result_digest;
    const std::uint64_t landing_digest =
        gact::runtime::fuzz(landing->scenario, landing->report,
                            fuzz_config(o.seed, kLandingSchedules, o.threads))
            .result_digest;

    const auto check = [&](const FuzzResult& f, std::uint64_t digest,
                           std::size_t schedules) {
        r.attempted += f.executed;
        r.failed += f.violation_count;
        r.check(f.clean() && f.executed == schedules &&
                    f.result_digest == digest,
                "fuzz-campaign at seed " + std::to_string(o.seed) + ": " +
                    f.summary());
    };

    if (!o.trace) {
        const Samples s = take_samples(o.seconds, 3, setup, [&] {
            const auto start = Clock::now();
            const FuzzResult a = gact::runtime::fuzz(
                table->scenario, table->report,
                fuzz_config(o.seed, kTableSchedules, 1));
            const FuzzResult b = gact::runtime::fuzz(
                landing->scenario, landing->report,
                fuzz_config(o.seed, kLandingSchedules, 1));
            const double seconds = seconds_since(start);
            check(a, table_digest, kTableSchedules);
            check(b, landing_digest, kLandingSchedules);
            return seconds;
        });
        const double sample_s = median(s.times);
        const double schedules =
            static_cast<double>(kTableSchedules + kLandingSchedules);
        r.add("latency_ms", sample_s * 1e3 / schedules, "ms", s.times.size());
        r.add("throughput_per_s", schedules / sample_s, "1/s", s.times.size());
        r.add("setup_s", median(s.setups), "s", s.setups.size());
        r.add("peak_rss_mb", peak_rss_mb(), "MB");
        r.note("schedules_per_s", schedules / sample_s, "1/s", s.times.size());
        r.note("error_rate",
               static_cast<double>(r.failed) /
                   static_cast<double>(std::max<std::size_t>(r.attempted, 1)),
               "ratio", r.attempted);
        return r;
    }

    // Traced run: a pass is both campaigns replayed through the calls
    // runtime::fuzz makes; its digests must equal the real campaign's.
    Tracer tracer;
    std::vector<std::int64_t> passes;
    std::vector<double> rounds_per_schedule;
    const double schedules =
        static_cast<double>(kTableSchedules + kLandingSchedules);
    // Two spans per schedule: a quarter of the run keeps the span file
    // to a few MB.
    const auto pairs = take_pairs(
        o.seconds / 4, 3,
        [&] {
            const auto start = Clock::now();
            check(gact::runtime::fuzz(table->scenario, table->report,
                                      fuzz_config(o.seed, kTableSchedules, 1)),
                  table_digest, kTableSchedules);
            check(gact::runtime::fuzz(landing->scenario, landing->report,
                                      fuzz_config(o.seed, kLandingSchedules, 1)),
                  landing_digest, kLandingSchedules);
            return seconds_since(start);
        },
        [&] {
            const std::uint64_t req = passes.size();
            const auto start = Clock::now();
            const std::int64_t pass = tracer.open("pass", req, -1);
            const ReplayResult a = traced_fuzz(
                *table, fuzz_config(o.seed, kTableSchedules, 1), tracer, req,
                pass, "runtime.execute.table");
            const ReplayResult b = traced_fuzz(
                *landing, fuzz_config(o.seed, kLandingSchedules, 1), tracer,
                req, pass, "runtime.execute.landing");
            tracer.close(pass);
            passes.push_back(pass);
            rounds_per_schedule.push_back((a.rounds + b.rounds) / schedules);
            r.attempted += kTableSchedules + kLandingSchedules;
            r.failed += a.violations + b.violations;
            r.check(a.digest == table_digest && b.digest == landing_digest,
                    "fuzz-campaign traced replay digests differ from fuzz()");
            return seconds_since(start);
        });

    const auto per_pass = [&](auto value) {
        std::vector<double> v;
        for (std::int64_t pass : passes) v.push_back(value(pass));
        return median(v);
    };
    r.add("runtime.schedule_gen_us", per_pass([&](std::int64_t p) {
              return tracer.children_ms(p, "runtime.schedule_gen") * 1e3 /
                     schedules;
          }),
          "us", passes.size());
    r.add("runtime.execute_us.table", per_pass([&](std::int64_t p) {
              return tracer.children_ms(p, "runtime.execute.table") * 1e3 /
                     static_cast<double>(kTableSchedules);
          }),
          "us", passes.size());
    r.add("runtime.execute_us.landing", per_pass([&](std::int64_t p) {
              return tracer.children_ms(p, "runtime.execute.landing") * 1e3 /
                     static_cast<double>(kLandingSchedules);
          }),
          "us", passes.size());
    r.add("runtime.rounds_per_schedule", median(rounds_per_schedule), "count",
          passes.size());
    add_unaccounted_share(r, tracer, passes);
    add_overhead_share(r, pairs);
    if (!o.trace_out.empty()) tracer.write(o.trace_out);
    return r;
}

}  // namespace perfbench
