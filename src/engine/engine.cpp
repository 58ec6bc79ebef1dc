#include "engine/engine.h"

#include <filesystem>

#include "engine/general_route.h"
#include "engine/stage_clock.h"
#include "exec/cancel.h"
#include "exec/for_index.h"
#include "iis/run_enumeration.h"
#include "util/require.h"

namespace gact::engine {

namespace {

SolveReport solve_wait_free(const Scenario& scenario,
                            const core::SolverConfig& solver,
                            core::SharedNogoodPool* pool) {
    SolveReport report;
    report.scenario = scenario.name;

    const auto start = stage_clock_now();
    const core::ActResult act = core::run_act_search(
        scenario.task, scenario.options.max_depth, solver, pool);
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
                          const core::SolverConfig& solver,
                          core::SharedNogoodPool* pool) {
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
    // (radial_projection_l1 requires it); on any other base the engine
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
        guidance, solver, scenario.options.shard_threads, pool);
    report.timings.push_back(
        {"terminating-subdivision", witness.subdivision_millis});
    report.timings.push_back(
        {"simplicial-approximation", witness.approximation_millis});
    report.counters = witness.counters;
    report.total_backtracks = witness.counters.backtracks;
    report.witness_depth =
        static_cast<int>(scenario.options.subdivision_stages);
    report.tsub = std::make_shared<const core::TerminatingSubdivision>(
        std::move(witness.tsub));

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

    // Stage 3: the model's compact run family M_D.
    auto start = stage_clock_now();
    report.model_runs = iis::filter_by_model(
        iis::enumerate_stabilized_runs(scenario.task.num_processes,
                                       scenario.options.run_prefix_depth),
        *scenario.model);
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
        *report.tsub, report.model_runs, scenario.options.max_landing_round);
    report.timings.push_back({"admissibility", millis_since(start)});

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
    double total_ms = 0.0;
    for (const StageTiming& t : timings) total_ms += t.millis;
    out += ", " + std::to_string(static_cast<long long>(total_ms)) + " ms";
    if (!detail.empty()) out += " — " + detail;
    for (const std::string& w : warnings) out += " [warning: " + w + "]";
    return out;
}

SolveReport Engine::solve(const Scenario& scenario) const {
    require(!scenario.name.empty(), "Engine::solve: unnamed scenario");

    // Pool persistence (EngineOptions::pool_file): resolve the pool and
    // warm-start it from disk before the solve, save it back after. Any
    // file problem downgrades to a cold start with a warning — a stale
    // or mangled pool file must never take the solve down, because the
    // pool only ever accelerates; it never decides.
    std::shared_ptr<core::SharedNogoodPool> pool =
        scenario.options.nogood_pool;
    std::vector<std::string> pool_warnings;
    const std::string& pool_file = scenario.options.pool_file;
    if (!pool_file.empty()) {
        if (pool == nullptr) {
            pool = std::make_shared<core::SharedNogoodPool>();
        }
        // Only a genuinely ABSENT file is the clean, silent cold start
        // (the run that seeds it below). A file that exists but cannot
        // be opened or parsed — permissions, corruption, version skew —
        // must surface as a warning: the operator configured a
        // warm-start that is not happening.
        std::error_code ec;
        if (std::filesystem::exists(pool_file, ec) || ec) {
            const std::string err = pool->load(pool_file);
            if (!err.empty()) {
                pool_warnings.push_back(
                    "nogood-pool file rejected (" + err +
                    ") — continuing with a cold pool");
            }
        }
    }

    // Time budget (EngineOptions::time_budget_ms): materialized as a
    // CancelToken deadline the whole route observes — between wait-free
    // depths, between subdivision stages, and at the CSP's backtrack
    // checkpoints — so an over-budget solve stops at the next task
    // boundary. A caller-provided token
    // (solver.cancel) becomes the parent, so either source stops the
    // solve and the deadline never leaks into the caller's scope.
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
            ? solve_wait_free(scenario, solver, pool.get())
            : solve_general(scenario, solver, pool.get());
    report.warnings.insert(report.warnings.begin(), pool_warnings.begin(),
                           pool_warnings.end());

    // The promised "cancelled" stage timing: when the budget's token
    // fired, record how long the solve had run when it wound down.
    if (budgeted && budget_token.cancelled()) {
        report.timings.push_back({"cancelled", millis_since(solve_start)});
    }

    if (!pool_file.empty()) {
        const std::string err = pool->save(pool_file);
        if (!err.empty()) {
            report.warnings.push_back("nogood-pool save failed (" + err +
                                      ") — learning not persisted");
        }
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
