// The general-model witness construction (Theorem 6.1, "<=" direction,
// stages 2-4 of the Section 9.2 pipeline), parameterized by a StableRule.
//
// Given an affine task and a stabilization strategy, materialize the
// terminating subdivision T stage by stage, then search for the chromatic
// carrier-preserving approximation delta : K(T) -> L (Proposition 9.1 /
// Theorem 8.4). Admissibility against a model's run families — stage 5 —
// lives with the engine, which owns the model; this module is purely the
// topological construction. core::build_lt_pipeline is a thin shim over
// this function with LtStableRule, kept for compatibility.
#pragma once

#include "core/lt_pipeline.h"
#include "engine/stable_rule.h"

namespace gact::engine {

/// The constructed witness (or the evidence that none was found).
struct GeneralWitness {
    core::TerminatingSubdivision tsub;  ///< T, materialized
    std::optional<core::SimplicialMap> delta;  ///< K(T) -> L if found
    /// Approximation-CSP effort and learning tallies (backtracks,
    /// nogood/pool activity — see core::SearchCounters).
    core::SearchCounters counters;
    /// True when the CSP search space was exhausted (no approximation
    /// exists for this T); false when the budget ran out first. Only
    /// meaningful when `delta` is empty.
    bool exhausted = false;
    /// Wall time of the two stages, for SolveReport timings.
    double subdivision_millis = 0.0;
    double approximation_millis = 0.0;
};

/// Materialize `stages` advance() steps of the terminating subdivision of
/// the task's input complex under `rule`, then search for delta. Rules are
/// consulted from stage 0 on — the L_t convention of two unconditional
/// Chr stages is the rule's own business (lt_stable_rule rejects depths
/// < 2), so build_lt_pipeline's 2 + extra_stages maps to stages here.
/// If no simplex ever stabilizes, the returned witness has an empty
/// stable complex and no delta (the CSP is not attempted).
///
/// `shard_threads > 1` splits the terminating-subdivision stage into
/// per-facet work units on a self-scheduling thread pool (the
/// stabilization scan and the per-parent-facet subdivision build of each
/// advance; see topology/subdivision.h). The sharded build is
/// bit-identical to the sequential one — work units are merged in facet
/// order — so it changes wall clock only. The approximation CSP itself
/// is single-threaded.
///
/// `nogood_pool`, when non-null, wires cross-solve conflict reuse into
/// the approximation CSP (see core::lt_approximation_problem).
GeneralWitness build_general_witness(const tasks::AffineTask& task,
                                     const StableRule& rule,
                                     std::size_t stages, bool fix_identity,
                                     core::LtGuidance guidance,
                                     const core::SolverConfig& solver,
                                     unsigned shard_threads = 1,
                                     core::SharedNogoodPool* nogood_pool =
                                         nullptr);

}  // namespace gact::engine
