#include "runtime/fuzz.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "engine/executable.h"
#include "exec/for_index.h"
#include "exec/scheduler.h"
#include "runtime/executor.h"
#include "util/require.h"

namespace gact::runtime {

namespace {

/// Order-sensitive 64-bit fold (one SplitMix64 step per word).
std::uint64_t fold(std::uint64_t acc, std::uint64_t word) {
    return mix_seed(acc ^ (word + 0xd1b54a32d192ed03ULL), 0x2545f4914f6cdd1dULL);
}

std::uint64_t digest_of(const ExecutionResult& r) {
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

bool is_admissible(const iis::Model* model, const Schedule& s) {
    return model == nullptr || model->contains(s.to_run());
}

/// Greedy shrink: repeatedly take the first simplification that keeps
/// the schedule admissible and still failing, until none applies or the
/// execution budget runs out. Simplifications, strongest first: drop the
/// whole prefix, drop one prefix round, flatten a prefix partition to
/// fully concurrent, flatten the cycle partition.
template <typename FailsFn>
Schedule shrink_schedule(Schedule s, const iis::Model* model,
                         std::size_t budget, const FailsFn& fails) {
    const auto still_failing = [&](const Schedule& c) {
        if (budget == 0) return false;
        --budget;
        if (!is_admissible(model, c)) return false;
        try {
            return fails(c);
        } catch (const std::exception&) {
            return false;  // malformed candidate: not a valid shrink
        }
    };
    bool improved = true;
    while (improved && budget > 0) {
        improved = false;
        if (!s.prefix.empty()) {
            Schedule c = s;
            c.prefix.clear();
            if (still_failing(c)) {
                s = std::move(c);
                continue;
            }
        }
        for (std::size_t i = 0; i < s.prefix.size() && !improved; ++i) {
            Schedule c = s;
            c.prefix.erase(c.prefix.begin() + static_cast<std::ptrdiff_t>(i));
            if (still_failing(c)) {
                s = std::move(c);
                improved = true;
            }
        }
        if (improved) continue;
        for (std::size_t i = 0; i < s.prefix.size() && !improved; ++i) {
            if (s.prefix[i].num_blocks() <= 1) continue;
            Schedule c = s;
            c.prefix[i] = iis::OrderedPartition::concurrent(
                s.prefix[i].support());
            if (still_failing(c)) {
                s = std::move(c);
                improved = true;
            }
        }
        if (improved) continue;
        if (s.cycle.num_blocks() > 1) {
            Schedule c = s;
            c.cycle = iis::OrderedPartition::concurrent(s.cycle.support());
            if (still_failing(c)) {
                s = std::move(c);
                improved = true;
            }
        }
    }
    return s;
}

}  // namespace

std::string FuzzResult::summary() const {
    std::ostringstream os;
    os << scenario << ": ";
    if (skipped) {
        os << "skipped (" << skip_reason << ")";
        return os.str();
    }
    os << executed << " schedules, " << violation_count << " violations, "
       << "digest 0x" << std::hex << result_digest;
    return os.str();
}

FuzzResult fuzz(const engine::Scenario& scenario,
                const engine::SolveReport& report, const FuzzConfig& config) {
    FuzzResult out;
    out.scenario = scenario.name;
    out.result_digest = config.seed;

    const auto skip = [&out](std::string why) {
        out.skipped = true;
        out.skip_reason = std::move(why);
        return out;
    };
    if (!report.solvable() || !report.witness.has_value()) {
        return skip(std::string("verdict ") + engine::to_string(report.verdict));
    }
    if (scenario.is_wait_free()) {
        if (!report.wf_domain.has_value() || report.witness_depth < 0) {
            return skip("wait-free report without Chr^d domain");
        }
    } else if (report.tsub == nullptr) {
        return skip("general report without terminating subdivision");
    }

    const std::unique_ptr<DecisionRule> rule =
        engine::make_decision_rule(scenario, report);
    const tasks::Task& task = scenario.task;
    const std::uint32_t n = task.num_processes;
    const bool inputless = task.is_inputless();
    std::vector<topo::Simplex> facets;
    if (!inputless) {
        facets = task.inputs.complex().simplices_of_dimension(
            static_cast<int>(n) - 1);
        require(!facets.empty(), "fuzz: input complex has no facets");
    }
    const std::size_t base_rounds =
        scenario.is_wait_free()
            ? static_cast<std::size_t>(std::max(report.witness_depth, 0))
            : scenario.options.max_landing_round;

    // The schedule envelope. Wait-free witnesses are total on Chr^d, so
    // any prefix depth is covered by the Corollary 7.1 guarantee. The
    // general route's landing guarantee, however, is only *verified*
    // over the compact family M_D (D = run_prefix_depth): deeper random
    // prefixes can park the run's projection exactly on a stable-complex
    // vertex, where the snapshot hull straddles it forever and the
    // view-local rule never fires (the fuzzer found such runs for L_t —
    // e.g. prefix ({2}|{1})x3 then {1,2} concurrent — which is the
    // paper's compactness gap made concrete). So the generator draws
    // inside the envelope the engine actually proved.
    const std::uint32_t max_prefix =
        scenario.is_wait_free()
            ? config.max_prefix_rounds
            : std::min(config.max_prefix_rounds,
                       scenario.options.run_prefix_depth);
    const ScheduleGenerator generator(n, scenario.model, max_prefix);
    const iis::Model* model = scenario.model.get();

    // One execution of `s` under input facet `omega_index`, with the
    // verifier's allowed-output complex for the drawn participants.
    const auto run_one = [&](Executor& executor, const Schedule& s,
                             std::size_t omega_index) {
        std::vector<std::optional<topo::VertexId>> inputs(n);
        topo::Simplex face;
        if (inputless) {
            for (ProcessId p : s.participants().members()) {
                face = face.with(static_cast<topo::VertexId>(p));
            }
        } else {
            const topo::Simplex& omega = facets[omega_index];
            for (ProcessId p = 0; p < n; ++p) {
                inputs[p] = task.inputs.vertex_with_color(omega, p);
            }
            for (ProcessId p : s.participants().members()) {
                face = face.with(*inputs[p]);
            }
        }
        ExecutionConfig ec;
        ec.horizon = s.prefix.size() + base_rounds + config.horizon_slack;
        ec.stability_tail = config.stability_tail;
        ec.check_views = config.check_views;
        return executor.run(task, *rule, s, inputs, task.delta.at(face), ec);
    };

    struct Slot {
        std::uint64_t digest = 0;
        std::unique_ptr<FuzzViolation> violation;
    };
    std::vector<Slot> slots(config.iterations);

    // One executor per loop slot, reused for every schedule (and every
    // shrink candidate) the slot runs.
    const unsigned threads = std::min(config.threads, exec::kMaxWorkers);
    const auto executors = std::make_unique<Executor[]>(
        exec::for_index_slots(config.iterations, threads));

    exec::for_index(exec::Scheduler::shared(), config.iterations, threads,
                    [&](std::size_t i, unsigned slot) {
        Executor& executor = executors[slot];
        SplitMix64 rng(mix_seed(config.seed, i));
        const Schedule s = generator.next(rng);
        const std::size_t omega_index =
            facets.empty() ? 0 : rng.below(facets.size());
        const ExecutionResult r = run_one(executor, s, omega_index);
        slots[i].digest = digest_of(r);
        if (!r.violations.empty()) {
            auto v = std::make_unique<FuzzViolation>();
            v->iteration = i;
            v->omega_index = omega_index;
            v->schedule = s;
            v->detail = r.violations.front();
            v->shrunk = shrink_schedule(
                s, model, config.shrink_budget, [&](const Schedule& c) {
                    return !run_one(executor, c, omega_index)
                                .violations.empty();
                });
            slots[i].violation = std::move(v);
        }
    });

    for (std::size_t i = 0; i < slots.size(); ++i) {
        out.result_digest = fold(out.result_digest, slots[i].digest);
        ++out.executed;
        if (slots[i].violation != nullptr) {
            ++out.violation_count;
            if (out.violations.size() < config.max_recorded_violations) {
                out.violations.push_back(std::move(*slots[i].violation));
            }
        }
    }
    return out;
}

engine::ExecutedCheck attach_executed_check(const engine::Scenario& scenario,
                                            engine::SolveReport& report,
                                            const FuzzConfig& config) {
    const FuzzResult r = fuzz(scenario, report, config);
    engine::ExecutedCheck check;
    check.schedules = r.executed;
    check.violations = r.violation_count;
    check.seed = config.seed;
    check.result_digest = r.result_digest;
    check.skipped = r.skipped;
    if (r.skipped) {
        check.detail = r.skip_reason;
    } else if (!r.violations.empty()) {
        check.detail = "iteration " + std::to_string(r.violations[0].iteration) +
                       ": " + r.violations[0].detail + " [shrunk " +
                       r.violations[0].shrunk.to_string() + "]";
    } else {
        check.detail = "clean";
    }
    report.executed_check = check;
    return check;
}

}  // namespace gact::runtime
