// Nogood recording for the forward-checking chromatic-CSP engine, plus
// the cross-solve pool that lets learned conflicts outlive one solve.
//
// A nogood is a set of assignments {v_1 := w_1, .., v_k := w_k} that is
// provably contradictory: the solver has established that no satisfying
// map extends it. The FC engine records one at each conflict it proves,
// in its minimal observable form:
//  * domain wipeout — when forward checking empties an unassigned
//    vertex's domain, the nogood is the set of currently-assigned
//    (vertex, value) pairs that caused each pruning (tracked per pruned
//    value, so decisions that pruned nothing stay out of the nogood);
//  * constraint violation — when a fully assigned simplex maps outside
//    its constraint complex, the nogood is the conflicting tuple itself
//    (its non-fixed vertices' assignments).
// Before trying v := w, the engine asks the store whether that
// assignment would complete a recorded nogood under the current partial
// assignment; if so, the branch is pruned without redoing the search
// work that proved the conflict the first time. The same minimal
// conflict sets drive the engine's conflict-directed backjumping (see
// chromatic_csp.h).
//
// Soundness: a recorded conflict depends only on the per-solve constants
// (the constraint complexes and the root-propagated domains) and the
// recorded assignments — never on assignment order — so pruning against
// the store never removes a satisfying branch. Verdicts and witnesses
// match the naive engine, which learns nothing; only backtrack counts
// and wall time change (tests/solver_cache_test.cpp asserts this across
// the scenario registry).
//
// The store is bounded (SolverConfig::nogood_capacity) so pathological
// searches cannot grow it without bound — but a full store must not
// stop learning, so it *collects*: when the live count reaches the
// capacity it retires the least useful nogoods (lowest activity first —
// activity is bumped each time a nogood blocks a branch and halved at
// every collection, a clause-aging scheme in the LBD/VSIDS family) down
// to half the capacity and admits the new record. Retirement is
// logical: the nogood leaves the watch and dedup indices (it stops
// pruning and may be re-learned) but its deque slot and literal buffer
// survive, so ids stay stable and a blocking_nogood() or all().back()
// reference held by a searcher is never invalidated by a collection.
// Buffers are freed only by an explicit reclaim() at caller-chosen safe
// points (component boundaries, where no references are live); see
// tests/nogood_gc_test.cpp for the ASan-visible contract tests.
// Lookup is via a watch index that maps every literal to the live
// nogoods containing it. Deduplication compares canonicalized literal
// vectors inside per-hash buckets — hash equality alone is never
// trusted (a collision used to silently drop a genuinely new nogood).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "topology/chromatic_complex.h"
#include "topology/geometry.h"
#include "topology/simplex.h"

namespace gact::core {

/// One assignment `var := value` inside a nogood.
struct NogoodLiteral {
    topo::VertexId var = 0;
    topo::VertexId value = 0;

    bool operator==(const NogoodLiteral& o) const noexcept {
        return var == o.var && value == o.value;
    }
    bool operator<(const NogoodLiteral& o) const noexcept {
        return var != o.var ? var < o.var : value < o.value;
    }
};

/// A bounded, deduplicated store of nogoods with per-literal lookup.
/// Single-threaded: each solve owns its own store (cross-solve sharing
/// goes through SharedNogoodPool).
class NogoodStore {
public:
    using Hasher = std::function<std::size_t(const std::vector<NogoodLiteral>&)>;

    /// `capacity` == 0 disables the store (record() drops everything).
    explicit NogoodStore(std::size_t capacity);

    /// Test-only: inject a custom hasher (e.g. a constant, to force every
    /// record into one collision bucket). Dedup must survive any hasher.
    NogoodStore(std::size_t capacity, Hasher hasher);

    /// Record a conflicting assignment set. Literals are canonicalized
    /// (sorted, deduplicated); empty sets and duplicates of live
    /// nogoods are dropped. A full store retires its least active
    /// nogoods to make room. Returns true iff newly stored.
    bool record(std::vector<NogoodLiteral> literals);

    /// Would assigning `var := value` complete a stored nogood, given
    /// the current partial assignment? Returns the completed nogood's
    /// literal vector (stable for the lifetime of the store: nogoods
    /// live in a deque precisely so that record() never invalidates a
    /// previously returned reference; the vector used to reallocate,
    /// which made "hold across a record()" an ASan-visible
    /// use-after-free, see tests/nogood_gc_test.cpp), or nullptr.
    /// `value_of(u, out)` must return true and set `out` iff vertex `u`
    /// is currently assigned. A non-null result means the extended
    /// assignment is provably unsatisfiable and the value can be
    /// skipped; the literals name the assignments responsible (the
    /// conflict set backjumping consumes). Templated so the solver's
    /// dense value tables plug in without indirection; the watch index
    /// keeps the common no-match case to one hash probe.
    template <typename ValueOf>
    const std::vector<NogoodLiteral>* blocking_nogood(
        topo::VertexId var, topo::VertexId value,
        const ValueOf& value_of) const {
        const auto it = watch_.find(literal_key(var, value));
        if (it == watch_.end()) return nullptr;
        for (const std::uint32_t id : it->second) {
            bool complete = true;
            for (const NogoodLiteral& l : nogoods_[id]) {
                if (l.var == var) {
                    // The literal being assigned; a same-var literal
                    // with a different value can never be satisfied
                    // alongside it.
                    if (l.value != value) {
                        complete = false;
                        break;
                    }
                    continue;
                }
                topo::VertexId assigned_value = 0;
                if (!value_of(l.var, assigned_value) ||
                    assigned_value != l.value) {
                    complete = false;
                    break;
                }
            }
            if (complete) {
                // The activity signal the collector ranks by: a nogood
                // earns its keep each time it blocks a branch. Mutable
                // because a lookup is logically const.
                ++activity_[id];
                return &nogoods_[id];
            }
        }
        return nullptr;
    }

    /// Boolean view of blocking_nogood().
    template <typename ValueOf>
    bool blocked(topo::VertexId var, topo::VertexId value,
                 const ValueOf& value_of) const {
        return blocking_nogood(var, value, value_of) != nullptr;
    }

    /// Convenience overload over an assignment map (tests, cold paths).
    bool blocked(
        topo::VertexId var, topo::VertexId value,
        const std::unordered_map<topo::VertexId, topo::VertexId>& assignment)
        const {
        return blocked(var, value,
                       [&assignment](topo::VertexId u, topo::VertexId& out) {
                           const auto it = assignment.find(u);
                           if (it == assignment.end()) return false;
                           out = it->second;
                           return true;
                       });
    }

    bool empty() const noexcept { return nogoods_.empty(); }
    /// Stored entries including retired ones — ids [0, size()) stay
    /// stable across collections, which the pool-publish scan relies on.
    std::size_t size() const noexcept { return nogoods_.size(); }
    std::size_t capacity() const noexcept { return capacity_; }
    /// Entries still pruning (indexed in watch_/by_hash_).
    std::size_t live() const noexcept { return live_; }
    /// True iff `id` was retired by a collection. Retired entries keep
    /// their literals until reclaim().
    bool is_retired(std::uint32_t id) const noexcept {
        return id < retired_.size() && retired_[id] != 0;
    }
    /// Total retirements across all collections.
    std::size_t evicted() const noexcept { return evicted_; }
    /// Collections run so far.
    std::size_t gc_runs() const noexcept { return gc_runs_; }

    /// Free the literal buffers of nogoods retired since the last
    /// reclaim(), returning how many were freed. THIS is the call that
    /// invalidates outstanding references into retired entries (the
    /// deque slots themselves survive — ids stay stable — but their
    /// literal vectors are emptied), so callers may only invoke it at
    /// points where no blocking_nogood()/back() reference is held:
    /// the searcher reclaims at component boundaries.
    std::size_t reclaim();

    /// Records dropped as exact duplicates of a stored nogood (literal
    /// vectors compared, not hashes).
    std::size_t rejected_as_duplicate() const noexcept {
        return rejected_as_duplicate_;
    }

    /// All stored nogoods, in record order (for cross-solve publishing).
    /// A deque, not a vector: elements never move, so references handed
    /// out by blocking_nogood() / back() survive later record() calls.
    /// Retired-and-reclaimed entries appear as empty vectors.
    const std::deque<std::vector<NogoodLiteral>>& all() const noexcept {
        return nogoods_;
    }

private:
    /// Retire the least active live nogoods down to the keep target,
    /// rebuilding the watch and dedup indices without them. Called by
    /// record() when the live count reaches capacity.
    void collect();
    static std::uint64_t literal_key(topo::VertexId var,
                                     topo::VertexId value) noexcept {
        return (static_cast<std::uint64_t>(var) << 32) | value;
    }

    std::size_t capacity_ = 0;
    Hasher hasher_;  // null = the default literal-vector hash
    /// Stable element addresses (see all()); push_back on a deque never
    /// invalidates references to existing elements.
    std::deque<std::vector<NogoodLiteral>> nogoods_;
    /// Per-id block counts (see blocking_nogood); halved each
    /// collection so stale usefulness ages out. Mutable: bumping on a
    /// const lookup is bookkeeping, not observable state.
    mutable std::vector<std::uint32_t> activity_;
    /// Per-id retirement flags, parallel to nogoods_.
    std::vector<char> retired_;
    /// Retired ids whose literal buffers reclaim() has not freed yet.
    std::vector<std::uint32_t> pending_reclaim_;
    /// literal -> indices of nogoods containing it (every literal is
    /// indexed, so blocking_nogood() sees a nogood whichever literal
    /// completes it last).
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> watch_;
    /// hash -> indices of stored nogoods with that hash. Dedup compares
    /// the canonicalized literal vectors inside the bucket: two distinct
    /// nogoods may collide, and both must be kept.
    std::unordered_map<std::size_t, std::vector<std::uint32_t>> by_hash_;
    std::size_t live_ = 0;
    std::size_t evicted_ = 0;
    std::size_t gc_runs_ = 0;
    std::size_t rejected_as_duplicate_ = 0;
};

/// A thread-safe pool of learned nogoods shared *across* solves — across
/// subdivision depths, across concurrent solves of a batch or a server,
/// and across repeated solves of the same construction (e.g. two
/// registry scenarios differing only in their model).
///
/// Portability across vertex re-indexing: per-solve vertex ids change
/// from one subdivision depth to the next, but the *geometry* of a
/// vertex — its exact rational position in the base complex plus its
/// color — does not (the same carrier-keyed idea as AllowedComplexLru).
/// The pool therefore stores literals with the variable translated to an
/// interned (position, color) key id; the problem builders
/// (core/act_solver.h, core/lt_pipeline.h) install the translation
/// closure on ChromaticMapProblem, and the solver maps key ids back to
/// the current solve's vertex ids when seeding. A nogood whose variables
/// do not all exist in the current domain is simply not imported.
/// Output-side values are raw codomain vertex ids: every solve sharing a
/// scope maps into the same output complex, whose ids are stable.
///
/// Soundness contract — this is the part the caller owns: nogoods are
/// namespaced by a `scope` string, and every solve publishing into or
/// seeding from one scope must pose THE SAME constraint problem (same
/// domain-complex geometry, same codomain, same constraint complexes,
/// same fixed assignments). The builders derive the scope from the task
/// name plus every problem-shaping parameter (depth / stages / identity
/// fixing / guidance), so distinct problems never share a scope unless
/// two distinct tasks are given the same name. Scopes are compared as
/// strings — never by hash — for exactly the reason NogoodStore's dedup
/// was rewritten.
///
/// Reused nogoods are pruning-only, so seeding can change backtrack
/// counts but never a verdict or a witness
/// (tests/solver_cache_test.cpp asserts this across the registry).
class SharedNogoodPool {
public:
    using VarKeyId = std::uint32_t;

    struct PortableLiteral {
        VarKeyId var_key = 0;
        topo::VertexId value = 0;

        bool operator==(const PortableLiteral& o) const noexcept {
            return var_key == o.var_key && value == o.value;
        }
        bool operator<(const PortableLiteral& o) const noexcept {
            return var_key != o.var_key ? var_key < o.var_key
                                        : value < o.value;
        }
    };

    /// `capacity` caps the nogoods retained per scope (0 disables the
    /// pool: publish() drops everything and for_each() visits nothing).
    explicit SharedNogoodPool(std::size_t capacity_per_scope = 1 << 16);

    /// The stable dense id of a (position, color) vertex key, interning
    /// it on first sight. Ids are process-stable for the lifetime of the
    /// pool, so portable literals stay comparable across solves.
    VarKeyId intern(const topo::BaryPoint& position, topo::Color color);

    /// Publish one learned nogood under `scope`. Literals are
    /// canonicalized; duplicates (compared literal-by-literal inside
    /// hash buckets) and records past the per-scope capacity are
    /// dropped. Returns true iff newly stored.
    bool publish(const std::string& scope,
                 std::vector<PortableLiteral> literals);

    /// Visit every nogood stored under `scope` (snapshot semantics: the
    /// visit runs under the pool lock; keep `fn` cheap).
    void for_each(const std::string& scope,
                  const std::function<void(
                      const std::vector<PortableLiteral>&)>& fn) const;

    std::size_t size(const std::string& scope) const;
    std::size_t capacity_per_scope() const noexcept { return capacity_; }
    /// Total nogoods accepted across all scopes.
    std::size_t published() const;
    /// Publishes dropped as duplicates of an already-pooled nogood.
    std::size_t rejected_as_duplicate() const;
    /// Publishes dropped because their scope was full — observable, like
    /// every other learning-loss path in this header.
    std::size_t rejected_at_capacity() const;

    // --- persistence across processes --------------------------------
    //
    // The pool's contents are exactly the process-independent parts of
    // the learning: interned (position, color) keys (exact rationals —
    // serialized as num/den, never floats), string scopes, and literal
    // vectors. save()/load() move them through a versioned line-based
    // text format (spec in docs/ARCHITECTURE.md) so a later process
    // warm-starts where this one left off. The soundness contract is
    // unchanged — scopes still name the full problem identity, and a
    // load only ever adds nogoods a solver may prune against.

    /// Serialize every scope to `path` (format `gact-nogood-pool v1`).
    /// Merge-on-save: if `path` already holds a valid pool file, its
    /// contents are first merged into this pool (union, dedup, capacity
    /// still capping each scope), so two processes alternating on one
    /// file accumulate each other's learning instead of last-writer
    /// clobbering it; a missing or invalid existing file is simply
    /// overwritten. Atomic: the contents are written to a per-process,
    /// per-call temp name and renamed over the target, so a crash or
    /// write failure mid-save leaves the previous file intact, and
    /// concurrent save() calls (a snapshot timer racing a shutdown
    /// drain) cannot interleave into one tmp file. Returns "" on
    /// success, else a diagnostic. Scopes containing newlines are
    /// unrepresentable and reported as an error (the builders never
    /// produce them).
    ///
    /// Snapshot-friendly: the pool lock is held only to merge the
    /// parsed existing file and serialize the pool to memory — the
    /// file read before and the write+rename after run unlocked, so
    /// concurrent publishes (live solves) never block on disk I/O, and
    /// every snapshot is a consistent cut of the pool
    /// (tests/nogood_pool_persistence_test.cpp pins this under a
    /// publisher/snapshotter race).
    std::string save(const std::string& path);

    /// Merge the pool file at `path` into this pool: file-local key ids
    /// are re-interned (so loading composes with live interning and
    /// with multiple files), duplicate nogoods are dropped by literal
    /// comparison, capacity still caps each scope. All-or-nothing: the
    /// file is fully parsed and validated BEFORE the pool is touched,
    /// so a truncated, corrupted, or version-mismatched file returns a
    /// diagnostic and leaves the pool exactly as it was — callers
    /// downgrade to a cold start (SolveReport::warnings), never abort.
    /// Returns "" on success.
    std::string load(const std::string& path);

private:
    struct Scope {
        std::vector<std::vector<PortableLiteral>> nogoods;
        std::unordered_map<std::size_t, std::vector<std::uint32_t>> by_hash;
    };

    /// intern() / publish() bodies, callable while already holding
    /// mutex_ (load() re-interns a whole file under one lock).
    VarKeyId intern_locked(const topo::BaryPoint& position,
                           topo::Color color);
    /// A fully parsed and validated pool file, not yet merged (defined
    /// in nogood_store.cpp). Splitting parse from merge keeps the file
    /// I/O outside mutex_: load() and save() parse first, lock second.
    struct ParsedFile;
    /// Parse + validate the pool file at `path` into `out` WITHOUT
    /// touching the pool (no lock needed). Returns "" or a diagnostic;
    /// on error `out` is unspecified and must not be merged.
    static std::string parse_file(const std::string& path, ParsedFile& out);
    /// Commit a parsed file: re-intern its file-local keys, remap and
    /// publish its nogoods through the ordinary dedup + capacity path.
    /// The caller holds mutex_.
    void merge_parsed_locked(const ParsedFile& parsed);
    /// Serialize the whole pool into `out` (the `gact-nogood-pool v1`
    /// text). The caller holds mutex_. Returns "" or a diagnostic.
    std::string serialize_locked(std::string& out) const;
    bool publish_locked(const std::string& scope,
                        std::vector<PortableLiteral> literals);

    mutable std::mutex mutex_;
    std::size_t capacity_ = 0;
    std::map<std::pair<topo::BaryPoint, topo::Color>, VarKeyId> key_index_;
    std::map<std::string, Scope> scopes_;
    std::size_t published_ = 0;
    std::size_t rejected_as_duplicate_ = 0;
    std::size_t rejected_at_capacity_ = 0;
};

}  // namespace gact::core
