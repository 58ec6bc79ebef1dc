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
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "topology/simplex.h"
#include "util/hash.h"
#include "util/process_set.h"

namespace gact::iis {

/// Index of an interned view inside its arena.
using ViewId = std::uint32_t;

/// One view node. depth 0: `seen` is empty and `input` may carry the
/// process's input vertex (in some input complex); depth k > 0: `seen`
/// lists the (k-1)-views of the processes observed, sorted by id.
struct ViewNode {
    ProcessId owner = 0;
    int depth = 0;
    std::optional<topo::VertexId> input;  // only meaningful at depth 0
    std::vector<ViewId> seen;             // sorted, deduplicated

    friend bool operator==(const ViewNode& a, const ViewNode& b) noexcept =
        default;
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

    /// Intern a depth-(k) view from the (k-1)-views seen. `seen` must be
    /// non-empty and contain a view owned by `owner` at equal depth.
    ViewId make_view(ProcessId owner, std::vector<ViewId> seen);

    const ViewNode& node(ViewId id) const;

    std::size_t size() const noexcept { return nodes_.size(); }

    /// The set of processes appearing anywhere inside the view (the
    /// transitive "has seen" set; always contains the owner).
    ProcessSet processes_in(ViewId id) const;

    /// Structural equality is id equality; this renders a debug string.
    std::string to_string(ViewId id) const;

private:
    struct NodeHash {
        std::size_t operator()(const ViewNode& n) const noexcept {
            std::size_t seed = std::hash<ProcessId>{}(n.owner);
            hash_combine(seed, static_cast<std::size_t>(n.depth));
            hash_combine(seed, n.input ? 1 + static_cast<std::size_t>(*n.input)
                                       : 0);
            hash_combine(seed, hash_range(n.seen));
            return seed;
        }
    };

    static constexpr ViewId kNoView = ~ViewId{0};

    // The intern index is an open-addressing table of ids into nodes_,
    // so each node, with its `seen` list, is stored once.
    std::vector<ViewNode> nodes_;
    std::vector<std::size_t> hashes_;  // NodeHash of each node
    std::vector<ViewId> slots_;        // power-of-two size, kNoView = free
    mutable std::vector<std::optional<ProcessSet>> processes_cache_;

    ViewId intern(ViewNode n);
    std::size_t home_slot(std::size_t hash) const noexcept;
    void grow_slots();
};

}  // namespace gact::iis
