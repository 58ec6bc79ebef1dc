#include "engine/engine.h"

#include "engine/general_route.h"
#include "engine/stage_clock.h"
#include "exec/cancel.h"
#include "exec/for_index.h"
#include "iis/run_enumeration.h"
#include "util/require.h"

namespace gact::engine {

namespace {

SolveReport solve_wait_free(const Scenario& scenario,
                            const core::SolverConfig& solver) {
    SolveReport report;
    report.scenario = scenario.name;

    const auto start = stage_clock_now();
    const core::ActResult act = core::run_act_search(
        scenario.task, scenario.options.max_depth, solver,
        scenario.options.nogood_pool.get());
    report.timings.push_back({"act-search", millis_since(start)});

    report.backtracks_per_depth = act.backtracks_per_depth;
    report.counters = act.counters;
    report.total_backtracks = act.counters.backtracks;
    if (act.solvable) {
        report.verdict = Verdict::kSolvable;
        report.witness = act.eta;
        report.witness_depth = act.witness_depth;
        report.wf_domain = act.domain;
        report.detail = "Corollary 7.1 witness eta : Chr^" +
                        std::to_string(act.witness_depth) + " I -> O";
    } else if (act.exhausted_all_depths) {
        report.verdict = Verdict::kUnsolvableAtDepth;
        report.detail = "depths 0.." +
                        std::to_string(scenario.options.max_depth) +
                        " exhausted without a witness";
    } else {
        report.verdict = Verdict::kBudgetExhausted;
        report.detail = "backtrack budget hit before depth " +
                        std::to_string(scenario.options.max_depth) +
                        " settled";
    }
    return report;
}

SolveReport solve_general(const Scenario& scenario,
                          const core::SolverConfig& solver) {
    SolveReport report;
    report.scenario = scenario.name;
    if (!scenario.affine.has_value() ||
        scenario.options.stable_rule == nullptr) {
        report.verdict = Verdict::kUnsupported;
        report.detail = "model " + scenario.model->name() +
                        " needs affine geometry and a StableRule (the "
                        "general route is the Section 9 construction)";
        return report;
    }

    // kRadial is exact rational geometry for the n = 2 base only
    // (core::RadialProjection requires it); on any other base the engine
    // downgrades to the default candidate order and says so, instead of
    // letting the projection's precondition abort the solve mid-search.
    // Candidate order only shapes the search, never its verdict, so the
    // downgrade is safe. (See EngineOptions::guidance for the residual
    // contract on non-L_1 3-process geometries.)
    core::LtGuidance guidance = scenario.options.guidance;
    if (guidance == core::LtGuidance::kRadial &&
        scenario.affine->subdivision.base().dimension() != 2) {
        guidance = core::LtGuidance::kNearest;
        report.warnings.push_back(
            "radial-projection guidance requested on an n = " +
            std::to_string(
                scenario.affine->subdivision.base().dimension()) +
            " base; the exact projection covers n = 2 only — downgraded "
            "to nearest-vertex candidate order");
    }

    // Stages 1-2: terminating subdivision + simplicial approximation.
    GeneralWitness witness = build_general_witness(
        *scenario.affine, *scenario.options.stable_rule,
        scenario.options.subdivision_stages, scenario.options.fix_identity,
        guidance, solver, scenario.options.shard_threads,
        scenario.options.nogood_pool.get());
    report.timings.push_back(
        {"terminating-subdivision", witness.subdivision_millis});
    report.timings.push_back(
        {"simplicial-approximation", witness.approximation_millis});
    report.counters = witness.counters;
    report.total_backtracks = witness.counters.backtracks;
    report.tsub = std::make_shared<const core::TerminatingSubdivision>(
        std::move(witness.tsub));
    // A fired cancel token stops the subdivision between stages; a T cut
    // short that carries no witness proves nothing (Engine::solve names
    // the limit).
    const std::size_t built = report.tsub->stages() - 1;
    const bool cut_short = built < scenario.options.subdivision_stages;
    report.witness_depth = static_cast<int>(built);

    if (cut_short && !witness.delta.has_value()) {
        report.verdict = Verdict::kBudgetExhausted;
        report.detail = "subdivision cut short";
        return report;
    }
    if (report.tsub->stable_complex().is_empty()) {
        report.verdict = Verdict::kBudgetExhausted;
        report.detail = "no stable simplices after " +
                        std::to_string(scenario.options.subdivision_stages) +
                        " stages of " +
                        scenario.options.stable_rule->name() +
                        "; raise subdivision_stages";
        return report;
    }
    if (!witness.delta.has_value()) {
        if (witness.exhausted) {
            report.verdict = Verdict::kUnsolvableAtDepth;
            report.detail =
                "no chromatic approximation K(T) -> L exists for this "
                "subdivision (search exhausted); a finer T might carry one";
        } else {
            report.verdict = Verdict::kBudgetExhausted;
            report.detail =
                "approximation search hit its backtrack budget";
        }
        return report;
    }
    report.witness = witness.delta;

    // Stage 3: the model's compact run family M_D. The enumeration and
    // the model filter both obey the token; a list either one cut short
    // proves nothing, so the solve stops there.
    auto start = stage_clock_now();
    const auto cut = [&] {
        if (solver.cancel == nullptr || !solver.cancel->cancelled()) {
            return false;
        }
        report.model_runs.clear();
        report.timings.push_back({"run-enumeration", millis_since(start)});
        report.verdict = Verdict::kBudgetExhausted;
        report.detail = "cut short in run enumeration";
        return true;
    };
    {
        const std::vector<iis::Run> runs = iis::enumerate_stabilized_runs(
            scenario.task.num_processes, scenario.options.run_prefix_depth,
            solver.cancel);
        if (cut()) return report;
        report.model_runs =
            iis::filter_by_model(runs, *scenario.model, solver.cancel);
    }
    if (cut()) return report;
    report.timings.push_back({"run-enumeration", millis_since(start)});
    if (report.model_runs.empty()) {
        report.verdict = Verdict::kBudgetExhausted;
        report.detail = "no compact runs of " + scenario.model->name() +
                        " at prefix depth " +
                        std::to_string(scenario.options.run_prefix_depth) +
                        "; raise run_prefix_depth";
        return report;
    }

    // Stage 4: admissibility (Theorem 6.1, condition (a)).
    start = stage_clock_now();
    report.admissibility = core::check_admissibility(
        *report.tsub, report.model_runs, scenario.options.max_landing_round,
        solver.cancel);
    report.timings.push_back({"admissibility", millis_since(start)});
    if (report.admissibility->cancelled) {
        report.verdict = Verdict::kBudgetExhausted;
        report.detail = "cut short in admissibility";
        return report;
    }

    if (report.admissibility->admissible) {
        report.verdict = Verdict::kSolvable;
        report.detail =
            "delta : K(T) -> L found and T admissible for " +
            scenario.model->name() + " (" +
            std::to_string(report.admissibility->runs_checked) +
            " compact runs land by round " +
            std::to_string(report.admissibility->max_landing_round) + ")";
    } else {
        report.verdict = Verdict::kUnsolvableAtDepth;
        report.detail =
            "T is not admissible for " + scenario.model->name() + ": " +
            std::to_string(report.admissibility->failures.size()) +
            " runs fail to land by round " +
            std::to_string(scenario.options.max_landing_round) +
            "; this subdivision carries no witness";
    }
    return report;
}

/// How far a solve cut short got: the wait-free depths it searched, or
/// the subdivision stages it built and the later stage it was in — the
/// approximation search, run enumeration, or admissibility with the runs
/// it had checked.
std::string progress_of(const Scenario& scenario, const SolveReport& report) {
    if (scenario.is_wait_free()) {
        return "after " + std::to_string(report.backtracks_per_depth.size()) +
               " of " + std::to_string(scenario.options.max_depth + 1) +
               " wait-free depths";
    }
    const std::size_t requested = scenario.options.subdivision_stages;
    const auto built = static_cast<std::size_t>(report.witness_depth);
    const std::string out = "after " + std::to_string(built) + " of " +
                            std::to_string(requested) + " subdivision stages";
    if (report.admissibility.has_value()) {
        return out + ", in admissibility after " +
               std::to_string(report.admissibility->runs_checked) + " of " +
               std::to_string(report.model_runs.size()) + " runs";
    }
    if (report.witness.has_value()) return out + ", in run enumeration";
    return built == requested ? out + ", in the approximation search" : out;
}

}  // namespace

const char* to_string(Verdict v) {
    switch (v) {
        case Verdict::kSolvable:
            return "solvable";
        case Verdict::kUnsolvableAtDepth:
            return "unsolvable-to-depth";
        case Verdict::kBudgetExhausted:
            return "budget-exhausted";
        case Verdict::kUnsupported:
            return "unsupported";
    }
    return "?";
}

double SolveReport::total_millis() const {
    double total = 0.0;
    for (const StageTiming& t : timings) {
        if (t.stage != "cancelled") total += t.millis;
    }
    return total;
}

std::string SolveReport::summary() const {
    std::string out = scenario + ": " + to_string(verdict);
    if (verdict == Verdict::kSolvable && witness_depth >= 0) {
        out += " at depth " + std::to_string(witness_depth);
    }
    out += ", " + std::to_string(total_backtracks) + " backtracks";
    // Learning traffic, when any happened: cross-solve pool seeding /
    // publishing — the counters the warm-start checks read off this
    // line.
    if (counters.pool_seeded != 0 || counters.pool_published != 0) {
        out += ", pool " + std::to_string(counters.pool_seeded) +
               " seeded / " + std::to_string(counters.pool_published) +
               " published";
    }
    out += ", " + std::to_string(static_cast<long long>(total_millis())) +
           " ms";
    if (!detail.empty()) out += " — " + detail;
    for (const std::string& w : warnings) out += " [warning: " + w + "]";
    return out;
}

SolveReport Engine::solve(const Scenario& scenario) const {
    require(!scenario.name.empty(), "Engine::solve: unnamed scenario");

    // Time budget (EngineOptions::time_budget_ms): materialized as a
    // CancelToken deadline the whole route observes — between wait-free
    // depths, between subdivision stages, at the CSP's backtrack
    // checkpoints, inside run enumeration and between admissibility's
    // runs — so an over-budget solve stops at the next task boundary. A
    // caller-provided token (solver.cancel) becomes the parent, so either
    // source stops the solve and the deadline never leaks into the
    // caller's scope.
    const auto solve_start = stage_clock_now();
    core::SolverConfig solver = scenario.options.solver;
    exec::CancelToken budget_token;
    const bool budgeted = scenario.options.time_budget_ms > 0;
    if (budgeted) {
        if (solver.cancel != nullptr) {
            budget_token = exec::CancelToken::child_of(*solver.cancel);
        }
        budget_token.set_deadline_after_ms(scenario.options.time_budget_ms);
        solver.cancel = &budget_token;
    }

    SolveReport report =
        scenario.is_wait_free()
            ? solve_wait_free(scenario, solver)
            : solve_general(scenario, solver);

    // The promised "cancelled" stage timing: when the budget's token
    // fired, record how long the solve had run when it wound down.
    if (budgeted && budget_token.cancelled()) {
        report.timings.push_back({"cancelled", millis_since(solve_start)});
    }
    // A budget-exhausted verdict under a fired token names the limit
    // that fired and how far the solve got.
    if (report.verdict == Verdict::kBudgetExhausted &&
        solver.cancel != nullptr && solver.cancel->cancelled()) {
        const exec::CancelToken* caller = scenario.options.solver.cancel;
        report.detail =
            (caller != nullptr && caller->cancelled()
                 ? std::string("cancelled by the caller")
                 : "time budget of " +
                       std::to_string(scenario.options.time_budget_ms) +
                       " ms ran out") +
            " " + progress_of(scenario, report);
    }

    return report;
}

std::vector<SolveReport> Engine::solve_batch(
    const std::vector<Scenario>& scenarios, unsigned num_threads) const {
    require(num_threads >= 1, "Engine::solve_batch: num_threads must be >= 1");
    std::vector<SolveReport> reports(scenarios.size());
    if (num_threads == 1 || scenarios.size() <= 1) {
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            reports[i] = solve(scenarios[i]);
        }
        return reports;
    }

    // Self-scheduling shards on the resident scheduler
    // (exec/for_index.h): index-slotted tasks pull the next unsolved
    // scenario off an atomic index, so long solves (an L_t pipeline)
    // overlap short ones instead of serializing behind a static
    // partition; the first task error stops the loop and is rethrown
    // after the group join. Reports land in per-index slots, so the
    // batch is identical to sequential solves at any thread count.
    exec::for_index(exec::Scheduler::shared(), scenarios.size(),
                    num_threads, [&](std::size_t i) {
                        reports[i] = solve(scenarios[i]);
                    });
    return reports;
}

}  // namespace gact::engine
