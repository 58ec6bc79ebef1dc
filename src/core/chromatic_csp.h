// The search engine for chromatic, carrier-preserving simplicial maps.
//
// Both directions of the paper's machinery need witnesses of the form
// "a chromatic simplicial map from A to B such that the image of every
// simplex lies in a prescribed subcomplex":
//  * ACT (Corollary 7.1): eta : Chr^k I -> O with eta(sigma) in
//    Delta(carrier(sigma));
//  * the chromatic simplicial approximation of Theorem 8.4 / Proposition
//    9.1: delta : K(T') -> O approximating a continuous map f, found here
//    by ordering each vertex's candidates by distance to f(vertex).
//
// The search is a constraint satisfaction problem: variables are the
// vertices of A, domains are color-matching vertices of B allowed by the
// vertex's constraint complex, and every simplex of A whose vertices are
// all assigned must map to a simplex of its constraint complex.
//
// Two engines, selected by SolverConfig: fast, and naive as the
// reference.
//  * SolverConfig::naive() is the plain backtracker the library shipped
//    with: static order, no pruning, no caches;
//  * SolverConfig::fast() (the default) prunes per-vertex domains by
//    forward checking through a precomputed vertex/simplex adjacency
//    index (topology/adjacency_index) and always branches on the most
//    constrained vertex.
//
// The fast engine's per-node work is flattened by three incremental
// layers, all provably verdict/witness-preserving:
//  * an evaluation cache (core/eval_cache.h) memoizing allowed()
//    complexes and full image evaluations, keyed by dense constraint ids
//    from the adjacency index;
//  * nogood learning (core/nogood_store.h) recording each proven
//    conflict's minimal assignment set and pruning branches that would
//    recreate it;
//  * conflict-directed backjumping: the same minimal conflict sets tell
//    the engine which decision actually caused a dead end, and the
//    search returns straight to the deepest decision in the set instead
//    of backtracking chronologically through decisions the conflict
//    provably does not involve.
// Learned conflicts also outlive one solve: they persist through a
// SharedNogoodPool wired onto the problem when it is built (see
// ChromaticMapProblem::nogood_pool and core/nogood_store.h), which
// itself persists across processes via SharedNogoodPool::save/load.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/nogood_store.h"
#include "topology/simplicial_map.h"

namespace gact::exec {
class CancelToken;
}

namespace gact::core {

using topo::ChromaticComplex;
using topo::Simplex;
using topo::SimplicialComplex;
using topo::SimplicialMap;
using topo::VertexId;

/// @brief Problem statement of one chromatic-map search; see the header
/// comment for the two paper instances it encodes.
struct ChromaticMapProblem {
    /// @brief The complex being mapped (A). Not owned; must outlive the
    /// problem.
    const ChromaticComplex* domain = nullptr;
    /// @brief The complex mapped into (B). Not owned; must outlive the
    /// problem.
    const ChromaticComplex* codomain = nullptr;

    /// @brief The constraint complex for each simplex of the domain (the
    /// image must be one of its simplices).
    ///
    /// @note Carrier preservation lives here: for the paper's instances
    /// `allowed(sigma)` is Delta(carrier(sigma)), and the search is only
    /// meaningful when the function is monotone under faces (carrier
    /// maps are, by condition (ii) of Section 3.2).
    /// @note Must be pure and stable within one solve: the solver's
    /// memoization layers (core/eval_cache.h) cache both the returned
    /// reference and evaluation results against it.
    std::function<const SimplicialComplex&(const Simplex&)> allowed;

    /// @brief Pre-assigned vertices (may be empty).
    std::unordered_map<VertexId, VertexId> fixed;

    /// @brief Optional candidate ordering: given a domain vertex, an
    /// ordered list of codomain vertices to try (already
    /// color-matching). When absent, all color-matching vertices allowed
    /// at the vertex are tried.
    std::function<std::vector<VertexId>(VertexId)> candidate_order;

    /// @brief Optional cross-solve learning pool (core/nogood_store.h).
    /// When set together with `nogood_scope` and `pool_var_key`, the
    /// fast engine seeds its nogood store from the pool's scope before
    /// searching and publishes its newly learned nogoods afterwards.
    /// Installed by the problem builders, never by the solver: the
    /// builder owns the soundness contract that every solve sharing the
    /// scope poses the same constraint problem. Not owned; must outlive
    /// the problem. Thread-safe.
    SharedNogoodPool* nogood_pool = nullptr;
    /// @brief The pool namespace this problem publishes into and seeds
    /// from; see SharedNogoodPool for the identity contract. Empty
    /// disables pooling.
    std::string nogood_scope;
    /// @brief Translation of a domain vertex to its pool key (interned
    /// stable (position, color) id), so literals survive per-depth
    /// vertex re-indexing. Must be pure.
    std::function<SharedNogoodPool::VarKeyId(VertexId)> pool_var_key;
};

/// The two search engines. Solvability depends only on whether a map
/// exists (Corollary 7.1, Theorem 8.4), so both return the same verdict;
/// on every registry scenario they also return the same witness
/// (asserted by tests/solver_cache_test.cpp).
enum class SolverEngine {
    /// The seed backtracker: fixed vertices first, then per component a
    /// static maximum-cardinality order, no pruning, no caches. Kept as
    /// the independent reference the fast engine is tested against.
    kNaive,
    /// Forward checking with MRV/degree branching, the evaluation cache,
    /// nogood learning with GC, and conflict-directed backjumping.
    kFast,
};

/// @brief Settings of one search.
struct SolverConfig {
    /// @brief Which engine runs (see SolverEngine).
    SolverEngine engine = SolverEngine::kFast;
    /// @brief Backtrack budget of the search.
    std::size_t max_backtracks = 1000000;
    /// @brief Max nogoods live in the fast engine's store (0 disables
    /// learning). A full store collects: it retires the least active
    /// nogoods (see NogoodStore) and keeps learning.
    /// @note Eviction only forgets pruning shortcuts; verdicts and
    /// witnesses do not depend on the capacity.
    std::size_t nogood_capacity = 4096;
    /// @brief Capacity of the carrier -> constraint-complex LRU used by
    /// the *problem builders* (act_problem / lt_approximation_problem),
    /// not by the CSP core itself: it persists across subdivision depths
    /// where per-depth vertex ids do not. 0 disables it.
    std::size_t allowed_lru_capacity = 256;
    /// @brief External cancellation (exec/cancel.h): when set, the
    /// search aborts at its backtrack checkpoints once the token is
    /// cancelled or past its deadline — the same "not a proof" abort as
    /// a spent backtrack budget (`exhausted` comes back false). Not
    /// owned; must outlive the solve. Null = never cancelled. The
    /// engine threads EngineOptions::time_budget_ms through here.
    const exec::CancelToken* cancel = nullptr;

    /// @brief The naive reference engine.
    static SolverConfig naive(std::size_t max_backtracks = 1000000) {
        SolverConfig c;
        c.engine = SolverEngine::kNaive;
        c.max_backtracks = max_backtracks;
        c.allowed_lru_capacity = 0;
        return c;
    }

    /// @brief The shipped fast engine (the default).
    static SolverConfig fast(std::size_t max_backtracks = 1000000) {
        SolverConfig c;
        c.max_backtracks = max_backtracks;
        return c;
    }
};

/// @brief The additive effort/learning counters of one search.
///
/// Every field is a std::size_t tally, and add() accumulates ALL of
/// them — that is an enforced invariant, not a convention: a
/// static_assert next to add()'s definition (chromatic_csp.cpp) pins
/// sizeof(SearchCounters) to the field count, so adding a counter
/// without extending add() fails the build instead of being silently
/// dropped by some accumulation site (the per-depth and per-component
/// sums all funnel through add()). The populated-struct round-trip in
/// tests/solver_cache_test.cpp covers the sums themselves.
struct SearchCounters {
    /// Number of backtracking steps performed.
    std::size_t backtracks = 0;
    /// Branches skipped because they would have completed a recorded
    /// nogood (not counted as backtracks).
    std::size_t nogood_prunings = 0;
    /// Nogoods recorded by the search itself (pool seeds are counted
    /// separately, never here). This keeps growing past nogood_capacity
    /// — the capacity bounds the *live* set, not the learning.
    std::size_t nogoods_recorded = 0;
    /// Nogoods retired by store collections; 0 when the store never
    /// filled.
    std::size_t nogoods_evicted = 0;
    /// Dead ends resolved by a non-chronological jump: decision levels
    /// popped without re-enumerating their remaining values because the
    /// conflict set did not involve them.
    std::size_t backjumps = 0;
    /// Nogoods imported from the problem's SharedNogoodPool at the
    /// start of the search (0 when no pool is wired).
    std::size_t pool_seeded = 0;
    /// Newly learned nogoods published back to the pool.
    std::size_t pool_published = 0;
    /// Constraint-evaluation cache hits (allowed() + image memos
    /// combined); 0 for the naive engine.
    std::size_t eval_cache_hits = 0;
    /// Constraint-evaluation cache misses (including insertions
    /// rejected at capacity).
    std::size_t eval_cache_misses = 0;

    /// Field-wise accumulation of EVERY counter (see the struct note).
    void add(const SearchCounters& other) noexcept;
};

/// @brief Result of the search.
struct ChromaticMapResult {
    /// @brief The witness map, when one was found.
    std::optional<SimplicialMap> map;
    /// @brief True when the search space was exhausted (so no map exists
    /// under the given constraints); false when the backtrack budget ran
    /// out or the search was cancelled.
    bool exhausted = false;
    /// @brief Search effort and learning tallies.
    SearchCounters counters;
};

/// @brief Search for a satisfying map with the configured engine.
ChromaticMapResult solve_chromatic_map(const ChromaticMapProblem& problem,
                                       const SolverConfig& config);

/// @brief Verify that `map` is a chromatic simplicial map from
/// problem.domain to problem.codomain with every simplex image inside
/// its constraint complex. Returns a diagnostic or "" if valid.
/// @note This is the independent post-check every solve runs on its own
/// witness, which is also what guarantees the memoization layers cannot
/// smuggle an invalid map out of the solver.
std::string check_chromatic_map(const ChromaticMapProblem& problem,
                                const SimplicialMap& map);

}  // namespace gact::core
