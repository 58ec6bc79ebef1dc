// Hash-consed recursive views (paper, Sections 2.1 and 4.3).
//
// The k-th view of a process is defined recursively:
//   view(p, 0)  = {(p, input vertex of p)}          (Section 4.3)
//   view(p, k)  = { view(q, k-1) | q seen by p in round k }.
//
// Views are heavily shared DAGs (two processes in the same concurrency
// class have views that differ only in the owner), so the arena interns
// nodes: structurally equal views get the same ViewId, making view
// equality O(1) and memory linear in the number of distinct views. Nodes
// carry their owner process: the vertex of Chr^k corresponding to a view
// is the pair (owner's previous vertex, simplex of seen views), and the
// paper's protocol map is indexed by per-process views.
//
// Storage is flat: one record per node and one pool holding every node's
// `seen` ids back to back, so clear() empties an arena for reuse without
// giving back its capacity, and interning a view that already exists
// allocates nothing.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "topology/simplex.h"
#include "util/hash.h"
#include "util/process_set.h"

namespace gact::iis {

/// Index of an interned view inside its arena.
using ViewId = std::uint32_t;

/// One view node, read out of its arena. depth 0: `seen` is empty and
/// `input` may carry the process's input vertex (in some input complex);
/// depth k > 0: `seen` lists the (k-1)-views of the processes observed,
/// sorted by id. `seen` points into the arena and stays valid until the
/// arena's next intern or clear().
struct ViewNode {
    ProcessId owner = 0;
    int depth = 0;
    std::optional<topo::VertexId> input;  // only meaningful at depth 0
    std::span<const ViewId> seen;         // sorted, deduplicated
};

/// Interning arena for views.
class ViewArena {
public:
    ViewArena() = default;

    // The arena hands out ids into its private store; it is move-only to
    // keep ids stable.
    ViewArena(const ViewArena&) = delete;
    ViewArena& operator=(const ViewArena&) = delete;
    ViewArena(ViewArena&&) = default;
    ViewArena& operator=(ViewArena&&) = default;

    /// Intern a depth-0 view.
    ViewId make_initial(ProcessId owner,
                        std::optional<topo::VertexId> input = std::nullopt);

    /// Intern a depth-(k) view from the (k-1)-views seen, in any order
    /// and possibly repeated. `seen` must be non-empty and contain a view
    /// owned by `owner` at equal depth.
    ViewId make_view(ProcessId owner, std::span<const ViewId> seen);
    ViewId make_view(ProcessId owner, std::initializer_list<ViewId> seen) {
        return make_view(owner, std::span<const ViewId>(seen.begin(),
                                                        seen.size()));
    }

    ViewNode node(ViewId id) const;

    std::size_t size() const noexcept { return records_.size(); }

    /// Forget every view, keeping the storage: the next ids handed out
    /// are those of a fresh arena.
    void clear() noexcept;

    /// The id in this arena of the view structurally equal to `other`'s
    /// view `v` (same owner, depth, input and children, recursively), or
    /// nullopt if this arena holds no such view. Read-only: safe to call
    /// concurrently on a shared arena.
    std::optional<ViewId> find_equal(const ViewArena& other, ViewId v) const;

    /// The set of processes appearing anywhere inside the view (the
    /// transitive "has seen" set; always contains the owner).
    ProcessSet processes_in(ViewId id) const;

    /// Structural equality is id equality; this renders a debug string.
    std::string to_string(ViewId id) const;

private:
    struct Record {
        std::size_t hash = 0;
        std::uint32_t seen_begin = 0;  // offset into pool_
        std::uint32_t seen_size = 0;
        ProcessId owner = 0;
        int depth = 0;
        std::optional<topo::VertexId> input;
    };

    static constexpr ViewId kNoView = ~ViewId{0};

    static std::size_t hash_of(ProcessId owner, int depth,
                               std::optional<topo::VertexId> input,
                               std::span<const ViewId> seen) noexcept {
        std::size_t seed = std::hash<ProcessId>{}(owner);
        hash_combine(seed, static_cast<std::size_t>(depth));
        hash_combine(seed, input ? 1 + static_cast<std::size_t>(*input) : 0);
        hash_combine(seed, hash_range(seen));
        return seed;
    }

    // The intern index is an open-addressing table of ids into records_.
    std::vector<Record> records_;
    std::vector<ViewId> pool_;         // every record's seen ids
    std::vector<ViewId> slots_;        // power-of-two size, kNoView = free
    mutable std::vector<std::optional<ProcessSet>> processes_cache_;

    std::span<const ViewId> seen_of(const Record& r) const noexcept {
        return {pool_.data() + r.seen_begin, r.seen_size};
    }
    /// The probe slot holding the node, or the free slot ending its probe.
    std::size_t probe(std::size_t hash, ProcessId owner, int depth,
                      std::optional<topo::VertexId> input,
                      std::span<const ViewId> seen) const noexcept;
    /// `seen` is sorted and deduplicated.
    ViewId intern(ProcessId owner, int depth,
                  std::optional<topo::VertexId> input,
                  std::span<const ViewId> seen);
    std::size_t home_slot(std::size_t hash) const noexcept;
    void grow_slots();
};

}  // namespace gact::iis
