// Scenarios: the unified (Task, Model) problem statement of GACT.
//
// Theorem 6.1 parameterizes solvability of a task T by an arbitrary
// sub-IIS model M. A Scenario packages one such pair together with the
// search budgets, so every entry point of the library — the examples, the
// benches, the CLI driver, and Engine::solve_batch — consumes the same
// value type instead of hand-rolling its own driver per model.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/chromatic_csp.h"
#include "core/lt_pipeline.h"
#include "engine/stable_rule.h"
#include "iis/models.h"
#include "tasks/affine_task.h"

namespace gact::engine {

/// @brief Per-scenario search budgets and strategy knobs. The defaults
/// are the historical values of the rewritten callers.
struct EngineOptions {
    /// @brief Wait-free route: Corollary 7.1 search depths
    /// k = 0..max_depth.
    int max_depth = 3;

    /// @brief CSP engine for every witness search (both routes).
    /// @note The solver's incremental layers (evaluation cache, nogood
    /// learning, carrier LRU — see core/eval_cache.h and
    /// core/nogood_store.h) are configured here too; they are on by
    /// default and provably verdict/witness-preserving.
    core::SolverConfig solver = core::SolverConfig::fast();

    /// General route: stabilization strategy for the terminating
    /// subdivision. Required for non-wait-free models on affine tasks.
    std::shared_ptr<const StableRule> stable_rule;

    /// General route: total TerminatingSubdivision::advance() steps. The
    /// L_t pipeline's 2 + extra_stages convention maps here directly
    /// (lt_stable_rule is inert below depth 2).
    std::size_t subdivision_stages = 4;

    /// General route: pre-assign delta as the identity on the stable
    /// vertices lying in L (the R_0 part of K(T)).
    bool fix_identity = true;

    /// General route: candidate ordering for the approximation CSP.
    /// kRadial is the exact radial projection of the L_t (n = 2, t = 1)
    /// geometry: on any other base dimension the engine downgrades the
    /// request to the default ordering and records the downgrade in
    /// SolveReport::warnings instead of aborting mid-solve. On a
    /// *different* 3-process geometry the projection's preconditions may
    /// still not hold and Engine::solve will propagate the
    /// precondition_error — request kNearest for custom affine tasks.
    core::LtGuidance guidance = core::LtGuidance::kNearest;

    /// @brief Cross-solve nogood reuse (core/nogood_store.h): when set,
    /// every CSP the scenario runs seeds from and publishes to this pool
    /// under a scope derived from the problem's identity, so repeated
    /// solves of the same construction — re-runs, equivalence sweeps,
    /// scenarios differing only in their model — skip conflicts already
    /// proven. Share one pool across scenarios freely: scoping keeps
    /// distinct problems apart. Null disables reuse. Verdict- and
    /// witness-preserving (pruning only).
    std::shared_ptr<core::SharedNogoodPool> nogood_pool;

    /// @brief Pool persistence (core/nogood_store.h, save/load): when
    /// non-empty, the solve warm-starts by loading this pool file into
    /// its SharedNogoodPool (a per-solve pool is created when
    /// `nogood_pool` is null) and saves the pool back afterwards, so a
    /// fresh process replays every conflict an earlier one proved — the
    /// second process finds the bit-identical witness with 0
    /// backtracks. A missing file is a clean cold start; an unreadable,
    /// corrupted, or version-mismatched file downgrades to a cold start
    /// with a SolveReport::warnings entry, never an abort. Batch
    /// drivers sharing one pool across scenarios (example_engine_cli
    /// --pool-file) should load/save once themselves instead of setting
    /// this per scenario: per-solve saves of a shared file would race.
    std::string pool_file;

    /// @brief Intra-scenario sharding (general route): split each
    /// terminating-subdivision stage into per-facet work units across
    /// this many self-scheduling threads. Bit-identical to 1-thread
    /// builds; wall clock only. (The approximation CSP itself is
    /// single-threaded.)
    unsigned shard_threads = 1;

    /// General route: depth of the arbitrary-schedule prefix of the
    /// enumerated compact run families M_D (iis/run_enumeration.h).
    std::uint32_t run_prefix_depth = 1;

    /// General route: admissibility landing horizon (Theorem 6.1 (a)).
    std::size_t max_landing_round = 8;

    /// @brief Wall-clock budget of the whole solve, in milliseconds
    /// (0 = none). Enforced through a CancelToken deadline
    /// (exec/cancel.h) observed at every task boundary — between
    /// wait-free depths, between subdivision stages, and at the CSP's
    /// backtrack checkpoints — so an
    /// over-budget solve stops at the next boundary instead of only
    /// when a backtrack budget runs out. A solve cut short reports
    /// Verdict::kBudgetExhausted plus a "cancelled" stage timing. The
    /// solve server maps a request's queue-wait deadline here, so long
    /// solves are cut mid-flight rather than served late.
    std::size_t time_budget_ms = 0;
};

/// @brief One solvability question: does `model` solve `task`?
struct Scenario {
    std::string name;
    std::string description;

    /// @brief The task T = (I, O, Delta).
    tasks::Task task;

    /// @brief Geometry when T is affine (Section 4.2): required by the
    /// general route (terminating subdivision + simplicial
    /// approximation), unused by the wait-free route.
    /// @note Invariant: when set, `task` equals `affine->task` — the
    /// factories maintain this; hand-built scenarios must too.
    std::optional<tasks::AffineTask> affine;

    /// @brief The sub-IIS model M. Null means wait-free (all runs).
    std::shared_ptr<const iis::Model> model;

    EngineOptions options;

    /// @brief Excluded from the quick registry sets (minutes-scale builds, e.g.
    /// L_t at n = 3); runnable by name from the CLI.
    bool heavy = false;

    /// @brief A wait-free scenario: Corollary 7.1 search on `task`.
    static Scenario wait_free(std::string name, tasks::Task task,
                              EngineOptions options = {});

    /// @brief A general-model scenario on an affine task; `rule` drives
    /// the terminating subdivision.
    static Scenario general(std::string name, tasks::AffineTask affine,
                            std::shared_ptr<const iis::Model> model,
                            std::shared_ptr<const StableRule> rule,
                            EngineOptions options = {});

    /// @brief Does the scenario's model mean wait-free (route
    /// selector)? True for a null model and for iis::WaitFreeModel.
    bool is_wait_free() const;
};

}  // namespace gact::engine
