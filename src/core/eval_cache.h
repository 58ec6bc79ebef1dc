// Memoization layers for the chromatic-CSP hot path.
//
// Profiling the forward-checking engine on the L_t (n=2, t=1)
// approximation instance shows the per-node cost is dominated not by the
// search itself but by re-deriving facts that never change within a
// solve:
//  * `problem.allowed(sigma)` re-walks the carrier of sigma (exact
//    rational support computations) and re-looks-up the carrier map at
//    every node that touches the constraint;
//  * the leaf/filter constraint checks re-build and re-hash the same
//    image simplices along every branch of the tree that reproduces the
//    same partial assignment.
// Two caches remove that rework:
//  * EvalCache — a per-search (single-threaded) memo pairing a dense
//    constraint-indexed table of `allowed()` results with a capped hash
//    map of full image evaluations keyed by (constraint id, image
//    fingerprint). Owned by one solve; never shared.
//  * AllowedComplexLru — a small thread-safe LRU keyed by *carrier*
//    simplex, shared by the problem builders (core/act_solver.h,
//    core/lt_pipeline.h) across subdivision depths: vertex ids change
//    from Chr^k I to Chr^{k+1} I but carriers live in the base complex,
//    so the carrier -> constraint-complex association survives depth
//    changes.
// Both caches are pure memoization: they never change a verdict or a
// witness, only the wall time (see tests/solver_cache_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "topology/simplicial_complex.h"
#include "util/hash.h"

namespace gact::core {

struct ChromaticMapProblem;  // core/chromatic_csp.h

/// Hit/miss counters of one EvalCache (monotone within a search).
struct EvalCacheStats {
    std::size_t allowed_hits = 0;
    std::size_t allowed_misses = 0;
    std::size_t image_hits = 0;
    std::size_t image_misses = 0;
    /// Image evaluations not memoized (only with image_capacity == 0,
    /// which disables the image memos outright; a full memo now resets
    /// instead of rejecting — see epoch_resets).
    std::size_t image_rejected = 0;
    /// Full-memo epoch resets: a miss at capacity drops BOTH image
    /// memos wholesale and memoizes the new entry. The old behavior —
    /// rejecting every insertion forever once full, pinning whatever
    /// filled the memo first even after the search moved to a subtree
    /// with a disjoint working set — silently degraded the cache to a
    /// pass-through (tests/eval_cache_test.cpp pins the fix).
    std::size_t epoch_resets = 0;
    /// Entries dropped by those resets.
    std::size_t image_evicted = 0;

    std::size_t hits() const noexcept { return allowed_hits + image_hits; }
    std::size_t misses() const noexcept {
        return allowed_misses + image_misses + image_rejected;
    }
};

/// Per-search memoization of constraint evaluations. One instance per
/// search (no locking); constraint ids are the dense ids handed out by
/// topo::AdjacencyIndex for the problem's domain complex.
///
/// @note The cache is only sound within one (problem, fixed-assignment)
/// solve: entries assume `problem.allowed` is pure and stable, which the
/// ChromaticMapProblem contract guarantees. allowed_mask() entries also
/// assume each vertex's candidate list is the same on every call.
class EvalCache {
public:
    /// `num_constraints` sizes the dense allowed() table;
    /// `image_capacity` caps the image-evaluation memo (0 disables just
    /// that memo — allowed() results are always memoized).
    EvalCache(std::size_t num_constraints, std::size_t image_capacity);

    /// Memoized `problem.allowed(sigma)` for the constraint with dense
    /// id `cid`. The returned reference is stable for the lifetime of
    /// the problem (it points into the caller's carrier-map storage).
    const topo::SimplicialComplex& allowed(const ChromaticMapProblem& problem,
                                           std::size_t cid,
                                           const topo::Simplex& sigma);

    /// Memoized full constraint evaluation: does the image simplex
    /// spanned by `image` (the assigned values of sigma's vertices, in
    /// sigma's vertex order, possibly unsorted) lie in the codomain and
    /// in sigma's constraint complex? Cache hits skip both the
    /// Simplex normalization (sort + dedup + allocation) and the two
    /// hash-set membership tests.
    bool image_allowed(const ChromaticMapProblem& problem, std::size_t cid,
                       const topo::Simplex& sigma,
                       const std::vector<topo::VertexId>& image);

    /// The hole marker allowed_mask() expects at the unassigned slot
    /// (never a real vertex id).
    static constexpr topo::VertexId kHole = 0xffffffffu;

    /// Memoized forward-checking filter: `image` is sigma's image with
    /// kHole at position `hole_slot` (the single unassigned vertex); the
    /// result has one bit per entry of `values` — set iff substituting
    /// that candidate yields an image inside the codomain and the
    /// constraint complex. One lookup replaces the whole per-candidate
    /// evaluation loop; this is the (vertex, candidate,
    /// neighborhood-image fingerprint) cache of the solve loop.
    ///
    /// `image` is used as scratch during a miss but returned with kHole
    /// restored. The returned reference is valid until the next cache
    /// call.
    const std::vector<std::uint64_t>& allowed_mask(
        const ChromaticMapProblem& problem, std::size_t cid,
        const topo::Simplex& sigma, std::vector<topo::VertexId>& image,
        std::size_t hole_slot, const std::vector<topo::VertexId>& values);

    const EvalCacheStats& stats() const noexcept { return stats_; }

private:
    struct ImageKey {
        std::uint32_t cid = 0;
        std::vector<topo::VertexId> image;
    };
    /// Borrowed-key view for heterogeneous lookup: the hot path probes
    /// the memo with the caller's scratch buffer, allocating only on
    /// insertion.
    struct ImageKeyView {
        std::uint32_t cid = 0;
        const std::vector<topo::VertexId>* image = nullptr;
    };
    struct ImageKeyHash {
        using is_transparent = void;
        static std::size_t mix(std::uint32_t cid,
                               const std::vector<topo::VertexId>& image)
            noexcept {
            std::size_t seed = hash_range(image);
            hash_combine(seed, cid);
            return seed;
        }
        std::size_t operator()(const ImageKey& k) const noexcept {
            return mix(k.cid, k.image);
        }
        std::size_t operator()(const ImageKeyView& k) const noexcept {
            return mix(k.cid, *k.image);
        }
    };
    struct ImageKeyEq {
        using is_transparent = void;
        bool operator()(const ImageKey& a, const ImageKey& b) const noexcept {
            return a.cid == b.cid && a.image == b.image;
        }
        bool operator()(const ImageKeyView& a, const ImageKey& b) const
            noexcept {
            return a.cid == b.cid && *a.image == b.image;
        }
        bool operator()(const ImageKey& a, const ImageKeyView& b) const
            noexcept {
            return a.cid == b.cid && a.image == *b.image;
        }
    };

    /// Make room for one image/mask memo insertion: true = insert. At
    /// capacity this resets the epoch (clears both memos) rather than
    /// refusing — the refill costs a few thousand re-evaluations once,
    /// the freeze cost every evaluation from then on. Callers only hold
    /// memo references up to the next cache call (the documented
    /// allowed_mask contract), so the reset invalidates nothing live.
    bool admit_one();

    std::vector<const topo::SimplicialComplex*> allowed_by_id_;
    std::unordered_map<ImageKey, bool, ImageKeyHash, ImageKeyEq> image_memo_;
    std::unordered_map<ImageKey, std::vector<std::uint64_t>, ImageKeyHash,
                       ImageKeyEq>
        mask_memo_;
    std::vector<std::uint64_t> mask_scratch_;  // result slot at capacity
    std::size_t image_capacity_ = 0;
    EvalCacheStats stats_;
};

/// A small thread-safe LRU from carrier simplices (base-complex ids) to
/// their constraint complexes. Shared by act_problem /
/// lt_approximation_problem closures so repeated carriers — within one
/// depth and across subdivision depths — skip the carrier-map walk.
///
/// @note Thread-safe, so a problem may be solved from any thread; each
/// solve is single-threaded, so the mutex is uncontended in practice.
class AllowedComplexLru {
public:
    /// `capacity` == 0 disables caching (get() always calls `miss`).
    explicit AllowedComplexLru(std::size_t capacity);

    /// The cached complex for `carrier`, or `miss()` (memoized) on a
    /// cache miss. `miss` must return a pointer stable for the lifetime
    /// of the underlying problem (carrier maps store complexes by
    /// value and are immutable during a solve).
    const topo::SimplicialComplex& get(
        const topo::Simplex& carrier,
        const std::function<const topo::SimplicialComplex*()>& miss);

    std::size_t capacity() const noexcept { return capacity_; }
    std::size_t size() const;
    std::size_t hits() const;
    std::size_t misses() const;

private:
    using LruList = std::list<topo::Simplex>;

    struct Entry {
        const topo::SimplicialComplex* complex = nullptr;
        LruList::iterator lru_pos;
    };

    mutable std::mutex mutex_;
    std::size_t capacity_ = 0;
    LruList lru_;  // front = most recently used
    std::unordered_map<topo::Simplex, Entry> entries_;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
};

}  // namespace gact::core
