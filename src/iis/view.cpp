#include "iis/view.h"

#include <algorithm>
#include <array>
#include <bit>

#include "util/require.h"

namespace gact::iis {

namespace {

/// Scratch room for `count` view ids: on the stack when they fit (a view
/// of an IIS run sees at most one view per process), else in `spill`.
std::span<ViewId> room(std::array<ViewId, kMaxProcesses>& local,
                       std::vector<ViewId>& spill, std::size_t count) {
    if (count <= local.size()) return {local.data(), count};
    spill.resize(count);
    return spill;
}

}  // namespace

std::size_t ViewArena::home_slot(std::size_t hash) const noexcept {
    // Fibonacci hashing spreads hash_combine's low bits over the table.
    const int shift = 64 - std::countr_zero(slots_.size());
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(hash) * 0x9e3779b97f4a7c15ULL) >> shift);
}

void ViewArena::grow_slots() {
    slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), kNoView);
    const std::size_t mask = slots_.size() - 1;
    for (ViewId id = 0; id < records_.size(); ++id) {
        std::size_t i = home_slot(records_[id].hash);
        while (slots_[i] != kNoView) i = (i + 1) & mask;
        slots_[i] = id;
    }
}

std::size_t ViewArena::probe(std::size_t hash, ProcessId owner, int depth,
                             std::optional<topo::VertexId> input,
                             std::span<const ViewId> seen) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home_slot(hash);
    for (; slots_[i] != kNoView; i = (i + 1) & mask) {
        const Record& r = records_[slots_[i]];
        if (r.hash == hash && r.owner == owner && r.depth == depth &&
            r.input == input && std::ranges::equal(seen_of(r), seen)) {
            break;
        }
    }
    return i;
}

ViewId ViewArena::intern(ProcessId owner, int depth,
                         std::optional<topo::VertexId> input,
                         std::span<const ViewId> seen) {
    // Keep the load at most 1/2; growing first keeps the probe's free
    // slot valid for the insertion.
    if (2 * (records_.size() + 1) > slots_.size()) grow_slots();
    const std::size_t hash = hash_of(owner, depth, input, seen);
    const std::size_t i = probe(hash, owner, depth, input, seen);
    if (slots_[i] != kNoView) return slots_[i];
    const ViewId id = static_cast<ViewId>(records_.size());
    require(id != kNoView && pool_.size() + seen.size() <= kNoView,
            "ViewArena: too many views");
    slots_[i] = id;
    Record r;
    r.hash = hash;
    r.seen_begin = static_cast<std::uint32_t>(pool_.size());
    r.seen_size = static_cast<std::uint32_t>(seen.size());
    r.owner = owner;
    r.depth = depth;
    r.input = input;
    pool_.insert(pool_.end(), seen.begin(), seen.end());
    records_.push_back(r);
    processes_cache_.emplace_back();
    return id;
}

ViewId ViewArena::make_initial(ProcessId owner,
                               std::optional<topo::VertexId> input) {
    return intern(owner, 0, input, {});
}

ViewId ViewArena::make_view(ProcessId owner, std::span<const ViewId> seen) {
    require(!seen.empty(), "ViewArena::make_view: no views seen");
    std::array<ViewId, kMaxProcesses> local;
    std::vector<ViewId> spill;
    std::span<ViewId> ids = room(local, spill, seen.size());
    std::copy(seen.begin(), seen.end(), ids.begin());
    std::sort(ids.begin(), ids.end());
    ids = ids.first(static_cast<std::size_t>(
        std::unique(ids.begin(), ids.end()) - ids.begin()));
    int child_depth = -1;
    bool owner_present = false;
    for (ViewId s : ids) {
        require(s < records_.size(), "ViewArena: unknown view id");
        const Record& child = records_[s];
        if (child_depth < 0) child_depth = child.depth;
        require(child.depth == child_depth,
                "ViewArena::make_view: mixed child depths");
        if (child.owner == owner) owner_present = true;
    }
    require(owner_present,
            "ViewArena::make_view: a process always sees its own view");
    return intern(owner, child_depth + 1, std::nullopt, ids);
}

ViewNode ViewArena::node(ViewId id) const {
    require(id < records_.size(), "ViewArena: unknown view id");
    const Record& r = records_[id];
    return ViewNode{r.owner, r.depth, r.input, seen_of(r)};
}

void ViewArena::clear() noexcept {
    records_.clear();
    pool_.clear();
    processes_cache_.clear();
    std::fill(slots_.begin(), slots_.end(), kNoView);
}

std::optional<ViewId> ViewArena::find_equal(const ViewArena& other,
                                            ViewId v) const {
    if (slots_.empty()) return std::nullopt;
    const ViewNode n = other.node(v);
    // Children first: their ids here, sorted, are the key of the node.
    std::array<ViewId, kMaxProcesses> local;
    std::vector<ViewId> spill;
    std::span<ViewId> ids = room(local, spill, n.seen.size());
    for (std::size_t i = 0; i < n.seen.size(); ++i) {
        const std::optional<ViewId> child = find_equal(other, n.seen[i]);
        if (!child.has_value()) return std::nullopt;
        ids[i] = *child;
    }
    // Interning is injective both ways, so distinct children stay
    // distinct here and the sorted list needs no deduplication.
    std::sort(ids.begin(), ids.end());
    const std::size_t i = probe(hash_of(n.owner, n.depth, n.input, ids),
                                n.owner, n.depth, n.input, ids);
    if (slots_[i] == kNoView) return std::nullopt;
    return slots_[i];
}

ProcessSet ViewArena::processes_in(ViewId id) const {
    require(id < records_.size(), "ViewArena: unknown view id");
    if (processes_cache_[id]) return *processes_cache_[id];
    const Record& r = records_[id];
    ProcessSet out = ProcessSet::single(r.owner);
    for (ViewId s : seen_of(r)) out = out | processes_in(s);
    processes_cache_[id] = out;
    return out;
}

std::string ViewArena::to_string(ViewId id) const {
    const ViewNode n = node(id);
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
