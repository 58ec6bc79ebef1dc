// The unified solvability engine: one entry point for any (Task, Model)
// pair.
//
// Engine::solve dispatches a Scenario by its model:
//  * wait-free models route to the Corollary 7.1 search (core/act_solver):
//    depths k = 0..max_depth of Chr^k I are tried for a chromatic
//    carrier-preserving witness eta;
//  * every other model routes through the Theorem 6.1 "<=" construction
//    (engine/general_route): a terminating subdivision driven by the
//    scenario's StableRule, the Proposition 9.1 simplicial approximation
//    delta : K(T) -> L, and admissibility of T against the model's
//    enumerated compact run families.
// Either way the caller gets a SolveReport: a three-way verdict, the
// witness artifacts needed by downstream protocol extraction, and
// per-stage timings/backtracks. Engine::solve_batch shards many scenarios
// across a self-scheduling thread pool so whole portfolios of (task,
// model) questions run in flight.
#pragma once

#include <vector>

#include "core/act_solver.h"
#include "engine/scenario.h"

namespace gact::engine {

/// @brief The three-way outcome of a bounded solvability search (plus a
/// guard for pairs outside the engine's routes).
enum class Verdict {
    /// A verified witness was found: the task is solvable in the model.
    kSolvable,
    /// Every explored depth was searched to exhaustion without a witness.
    /// Wait-free: no Corollary 7.1 map up to max_depth (full
    /// unsolvability needs the k -> infinity limit). General: the
    /// materialized subdivision provably carries no witness — a deeper or
    /// differently-stabilized T might.
    kUnsolvableAtDepth,
    /// Inconclusive: a backtrack budget or the landing horizon ran out
    /// before the search settled.
    kBudgetExhausted,
    /// The (task, model) pair is outside the engine's routes: a
    /// non-wait-free model needs affine geometry and a StableRule.
    kUnsupported,
};

/// @brief Stable lowercase name of a verdict (for CLIs and benches).
const char* to_string(Verdict v);

/// @brief Result summary of the runtime executed-check (runtime/fuzz.h):
/// the witness, run as an actual protocol over randomized admissible
/// schedules on the SM substrate, checked against Definition 4.1.
/// @note Plain data on purpose: the engine does not depend on the
/// runtime layer; runtime::fuzz fills this in for callers that ask.
struct ExecutedCheck {
    std::size_t schedules = 0;   ///< admissible schedules executed
    std::size_t violations = 0;  ///< Definition 4.1 violations observed
    std::uint64_t seed = 0;      ///< base seed of the campaign
    /// Deterministic digest of every execution's outputs and round
    /// counts, folded in iteration order — equal across shard thread
    /// counts, the replay anchor for "same seed, same behavior".
    std::uint64_t result_digest = 0;
    bool skipped = false;  ///< no runnable witness (see detail)
    std::string detail;    ///< skip reason or first violation
};

/// @brief Wall time of one pipeline stage.
struct StageTiming {
    std::string stage;   ///< stage name, e.g. "act-search"
    double millis = 0.0; ///< wall time in milliseconds
};

/// @brief Everything Engine::solve learned about a scenario.
///
/// @note The general-route artifacts (`tsub`, `model_runs`,
/// `admissibility`) are exactly the inputs downstream protocol
/// extraction (protocol/gact_protocol.h) consumes; a solvable report is
/// a self-contained constructive proof.
struct SolveReport {
    std::string scenario;
    Verdict verdict = Verdict::kUnsupported;
    /// One-line human-readable explanation of the verdict.
    std::string detail;
    /// Non-fatal adjustments the engine made to keep the solve running
    /// (e.g. downgrading kRadial guidance on a base the exact projection
    /// does not cover). Empty on a clean run.
    std::vector<std::string> warnings;

    /// @brief The witness map: eta : Chr^k I -> O (wait-free route) or
    /// delta : K(T) -> L (general route).
    /// @note Carrier preservation is guaranteed, not incidental: the
    /// solver re-verifies every witness against its constraint
    /// complexes (check_chromatic_map) before it reaches this field.
    std::optional<core::SimplicialMap> witness;
    /// Wait-free: the k of the witness (or -1). General: the number of
    /// subdivision stages materialized.
    int witness_depth = -1;

    // Wait-free route artifacts.
    /// Chr^k I at the witness depth, when solvable.
    std::optional<topo::SubdividedComplex> wf_domain;
    /// Backtracks per depth k = 0.. (wait-free route only).
    std::vector<std::size_t> backtracks_per_depth;

    // General route artifacts (shared so batch reports stay cheap to
    // copy; all are immutable once the report is built).
    std::shared_ptr<const core::TerminatingSubdivision> tsub;
    /// The model's compact run family used for admissibility — reusable
    /// by protocol extraction (protocol/gact_protocol.h).
    std::vector<iis::Run> model_runs;
    std::optional<core::AdmissibilityReport> admissibility;

    /// Total CSP backtracks across all searches of the solve
    /// (== counters.backtracks, kept as the historical field name).
    std::size_t total_backtracks = 0;
    /// Full search/learning tallies summed across the solve's CSP runs:
    /// backtracks, nogood learning and cross-solve pool
    /// seeding/publishing (core::SearchCounters). What the
    /// summary() learning annotations and the benches read.
    core::SearchCounters counters;
    /// Per-stage wall times, in pipeline order.
    std::vector<StageTiming> timings;

    /// Filled by runtime::attach_executed_check when the caller fuzzes
    /// the witness after solving; absent on a plain Engine::solve.
    std::optional<ExecutedCheck> executed_check;

    bool solvable() const { return verdict == Verdict::kSolvable; }
    /// One-line report summary for CLIs and benches.
    std::string summary() const;
};

/// @brief The engine facade.
///
/// @note Stateless: scenarios carry their own budgets, so one Engine
/// serves any mix of them, and solve() is safe to call concurrently
/// (per-solve caches are created per call, never shared).
class Engine {
public:
    /// @brief Solve one scenario; never throws for unsupported pairs
    /// (see Verdict::kUnsupported) but propagates precondition
    /// violations of malformed tasks.
    SolveReport solve(const Scenario& scenario) const;

    /// @brief Solve many scenarios as index-slotted tasks on the
    /// resident scheduler (exec/for_index.h), at most `num_threads` in
    /// flight, pulled off a self-scheduling atomic work index; the
    /// first task error stops the loop and is rethrown. Reports come
    /// back in input order and are identical to sequential solves
    /// regardless of shard order.
    std::vector<SolveReport> solve_batch(
        const std::vector<Scenario>& scenarios,
        unsigned num_threads = 1) const;
};

}  // namespace gact::engine
