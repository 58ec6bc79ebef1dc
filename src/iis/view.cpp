#include "iis/view.h"

#include <algorithm>
#include <bit>

#include "util/require.h"

namespace gact::iis {

std::size_t ViewArena::home_slot(std::size_t hash) const noexcept {
    // Fibonacci hashing spreads hash_combine's low bits over the table.
    const int shift = 64 - std::countr_zero(slots_.size());
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(hash) * 0x9e3779b97f4a7c15ULL) >> shift);
}

void ViewArena::grow_slots() {
    slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), kNoView);
    const std::size_t mask = slots_.size() - 1;
    for (ViewId id = 0; id < nodes_.size(); ++id) {
        std::size_t i = home_slot(hashes_[id]);
        while (slots_[i] != kNoView) i = (i + 1) & mask;
        slots_[i] = id;
    }
}

ViewId ViewArena::intern(ViewNode n) {
    // Keep the load at most 1/2; growing first keeps the probe's free
    // slot valid for the insertion.
    if (2 * (nodes_.size() + 1) > slots_.size()) grow_slots();
    const std::size_t hash = NodeHash{}(n);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home_slot(hash);
    for (; slots_[i] != kNoView; i = (i + 1) & mask) {
        const ViewId id = slots_[i];
        if (hashes_[id] == hash && nodes_[id] == n) return id;
    }
    const ViewId id = static_cast<ViewId>(nodes_.size());
    require(id != kNoView, "ViewArena: too many views");
    slots_[i] = id;
    hashes_.push_back(hash);
    nodes_.push_back(std::move(n));
    processes_cache_.emplace_back();
    return id;
}

ViewId ViewArena::make_initial(ProcessId owner,
                               std::optional<topo::VertexId> input) {
    ViewNode n;
    n.owner = owner;
    n.depth = 0;
    n.input = input;
    return intern(std::move(n));
}

ViewId ViewArena::make_view(ProcessId owner, std::vector<ViewId> seen) {
    require(!seen.empty(), "ViewArena::make_view: no views seen");
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    int child_depth = -1;
    bool owner_present = false;
    for (ViewId s : seen) {
        const ViewNode& child = node(s);
        if (child_depth < 0) child_depth = child.depth;
        require(child.depth == child_depth,
                "ViewArena::make_view: mixed child depths");
        if (child.owner == owner) owner_present = true;
    }
    require(owner_present,
            "ViewArena::make_view: a process always sees its own view");
    ViewNode n;
    n.owner = owner;
    n.depth = child_depth + 1;
    n.seen = std::move(seen);
    return intern(std::move(n));
}

const ViewNode& ViewArena::node(ViewId id) const {
    require(id < nodes_.size(), "ViewArena: unknown view id");
    return nodes_[id];
}

ProcessSet ViewArena::processes_in(ViewId id) const {
    require(id < nodes_.size(), "ViewArena: unknown view id");
    if (processes_cache_[id]) return *processes_cache_[id];
    const ViewNode& n = nodes_[id];
    ProcessSet out = ProcessSet::single(n.owner);
    for (ViewId s : n.seen) out = out | processes_in(s);
    processes_cache_[id] = out;
    return out;
}

std::string ViewArena::to_string(ViewId id) const {
    const ViewNode& n = node(id);
    std::string out = "p" + std::to_string(n.owner) + "@" +
                      std::to_string(n.depth);
    if (n.depth == 0) {
        if (n.input) out += "<in:" + std::to_string(*n.input) + ">";
        return out;
    }
    out += "{";
    for (std::size_t i = 0; i < n.seen.size(); ++i) {
        if (i > 0) out += ",";
        out += to_string(n.seen[i]);
    }
    out += "}";
    return out;
}

}  // namespace gact::iis
