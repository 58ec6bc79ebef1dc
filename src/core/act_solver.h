// The ACT decision procedure (paper, Corollary 7.1).
//
// A task T = (I, O, Delta) is wait-free solvable iff for some k there is a
// chromatic simplicial map eta : Chr^k I -> O with eta(sigma) in
// Delta(carrier(sigma)) for every simplex sigma. This module searches for
// such a map for k = 0, 1, .., max_k: a found map is a constructive proof
// of solvability (GACT with the everywhere-stable subdivision Chr^k I); an
// exhausted search at every k <= max_k certifies that no witness exists up
// to that depth (full unsolvability needs the k -> infinity limit, which
// is where impossibility arguments like FLP take over).
#pragma once

#include "core/chromatic_csp.h"
#include "core/eval_cache.h"
#include "tasks/task.h"
#include "topology/subdivision.h"

namespace gact::core {

/// @brief Result of the bounded ACT search.
struct ActResult {
    bool solvable = false;
    int witness_depth = -1;              // the k of the witness map
    std::optional<SimplicialMap> eta;    // the witness
    topo::SubdividedComplex domain;      // Chr^k I for the witness depth
    std::vector<std::size_t> backtracks_per_depth;
    /// Search/learning tallies summed over every depth searched
    /// (SearchCounters::add, so every counter field flows up).
    SearchCounters counters;
    bool exhausted_all_depths = false;   // searches below max_k all complete
};

/// @brief Search depths k = 0..max_k for a Corollary 7.1 witness.
/// `config` selects the CSP engine; its max_backtracks bounds each
/// depth's search separately.
///
/// This is the wait-free route's implementation, called by
/// engine::Engine::solve. The constraint complexes Delta(carrier(sigma))
/// are shared across depths through one carrier-keyed LRU
/// (core/eval_cache.h): per-depth vertex ids change from Chr^k I to
/// Chr^{k+1} I, but carriers live in the base complex, so deeper
/// searches start with the association warm.
///
/// When `nogood_pool` is non-null, every depth's solve additionally
/// seeds its nogood store from the pool and publishes what it learns,
/// under a scope derived from the task name and the depth. Scoping per
/// depth is what keeps reuse sound: a conflict proven against the Chr^k
/// constraint structure says nothing about Chr^{k+1} (deeper
/// subdivisions admit strictly more maps), so only re-solves of the same
/// (task, depth) problem — repeated engine runs, bench re-runs,
/// equivalence sweeps — share learning.
ActResult run_act_search(const tasks::Task& task, int max_k,
                         const SolverConfig& config,
                         SharedNogoodPool* nogood_pool = nullptr);

/// @brief Build the Corollary 7.1 constraint problem at a fixed depth
/// (exposed for tests and benchmarks).
///
/// When `lru` is non-null, the problem's allowed() closure routes
/// carrier lookups through it; the LRU must then outlive the problem.
/// When `nogood_pool` is non-null, the problem carries the cross-solve
/// learning hooks (scope = task name + depth; literal variables
/// translated through the pool's stable (position, color) keys).
/// @note The returned problem's closures also reference `task` and
/// `chr_k`, which must outlive it — and `lru` / `nogood_pool` when
/// supplied.
ChromaticMapProblem act_problem(const tasks::Task& task,
                                const topo::SubdividedComplex& chr_k,
                                AllowedComplexLru* lru = nullptr,
                                SharedNogoodPool* nogood_pool = nullptr);

}  // namespace gact::core
