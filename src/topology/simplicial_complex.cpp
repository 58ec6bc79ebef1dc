#include "topology/simplicial_complex.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>

#include "exec/for_index.h"

namespace gact::topo {

namespace {

// Fibonacci hashing: spreads a std::hash<Simplex> value over the top bits.
std::size_t home_slot(std::size_t hash, std::size_t slot_count) noexcept {
    const std::uint64_t h =
        static_cast<std::uint64_t>(hash) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> (64 - std::countr_zero(slot_count)));
}

// The power-of-two slot count that holds n elements at load <= 3/4;
// linear probing degrades past it.
std::size_t slots_for(std::size_t n) noexcept {
    std::size_t count = 8;
    while (4 * n > 3 * count) count *= 2;
    return count;
}

// The smallest slot range a sharded closure build hands one worker: below
// it the fork/join costs more than the range's share of the build.
constexpr std::size_t kMinRangeSlots = 4096;

// Simplex::faces enumerates at most this many vertices.
constexpr std::size_t kMaxFacetVertices = 24;

}  // namespace

SimplexSet::SimplexSet(const SimplexSet& other) {
    if (other.slot_count_ == 0) return;
    std::allocator<Simplex> alloc;
    Simplex* slots = alloc.allocate(other.slot_count_);
    try {
        std::uninitialized_copy_n(other.slots_, other.slot_count_, slots);
    } catch (...) {
        alloc.deallocate(slots, other.slot_count_);
        throw;
    }
    slots_ = slots;
    slot_count_ = other.slot_count_;
    size_ = other.size_;
}

SimplexSet::SimplexSet(SimplexSet&& other) noexcept
    : slots_(std::exchange(other.slots_, nullptr)),
      slot_count_(std::exchange(other.slot_count_, 0)),
      size_(std::exchange(other.size_, 0)) {}

SimplexSet& SimplexSet::operator=(const SimplexSet& other) {
    if (this != &other) *this = SimplexSet(other);
    return *this;
}

SimplexSet& SimplexSet::operator=(SimplexSet&& other) noexcept {
    if (this != &other) {
        release();
        slots_ = std::exchange(other.slots_, nullptr);
        slot_count_ = std::exchange(other.slot_count_, 0);
        size_ = std::exchange(other.size_, 0);
    }
    return *this;
}

void SimplexSet::release() noexcept {
    if (slots_ == nullptr) return;
    std::destroy_n(slots_, slot_count_);
    std::allocator<Simplex>{}.deallocate(slots_, slot_count_);
    slots_ = nullptr;
    slot_count_ = 0;
    size_ = 0;
}

std::size_t SimplexSet::probe(const Simplex& s) const noexcept {
    const std::size_t mask = slot_count_ - 1;
    std::size_t i = home_slot(std::hash<Simplex>{}(s), slot_count_);
    while (!slots_[i].empty() && !(slots_[i] == s)) i = (i + 1) & mask;
    return i;
}

std::size_t SimplexSet::find(const Simplex& s) const noexcept {
    if (slot_count_ == 0 || s.empty()) return npos;
    const std::size_t i = probe(s);
    return slots_[i].empty() ? npos : i;
}

bool SimplexSet::insert(Simplex&& s) {
    require(!s.empty(), "SimplexSet: cannot insert the empty simplex");
    // Grow at a load factor of 3/4; linear probing degrades past it.
    if (4 * (size_ + 1) > 3 * slot_count_) reserve(size_ + 1);
    Simplex& slot = slots_[probe(s)];
    if (!slot.empty()) return false;
    slot = std::move(s);
    ++size_;
    return true;
}

void SimplexSet::reserve(std::size_t n) {
    const std::size_t count = slots_for(n);
    if (count > slot_count_) rehash(count);
}

void SimplexSet::rehash(std::size_t slot_count) {
    Simplex* const slots = std::allocator<Simplex>{}.allocate(slot_count);
    std::uninitialized_default_construct_n(slots, slot_count);
    SimplexSet old = std::move(*this);
    slots_ = slots;
    slot_count_ = slot_count;
    size_ = old.size_;
    for (std::size_t i = 0; i < old.slot_count_; ++i) {
        Simplex& s = old.slots_[i];
        if (!s.empty()) slots_[probe(s)] = std::move(s);
    }
}

void SimplexSet::build_closure(const std::vector<Simplex>& facets,
                               unsigned num_threads, ClosureStats& stats) {
    // Size the table once: about one element per facet vertex, plus an
    // eighth. Neighbouring facets of a subdivision share most faces,
    // which keeps the distinct simplices near that count (a
    // 3-dimensional one has ~4.4 per facet, a 2-dimensional one ~3), and
    // never above the number of faces listed.
    std::size_t vertices = 0;
    std::size_t listed = 0;
    for (const Simplex& f : facets) {
        require(!f.empty(),
                "SimplicialComplex: cannot add the empty simplex");
        require(f.size() <= kMaxFacetVertices,
                "Simplex::faces: simplex too large to enumerate faces");
        vertices += f.size();
        listed += (std::size_t{1} << f.size()) - 1;
    }
    if (facets.empty()) return;
    std::size_t slot_count =
        slots_for(std::min(listed, vertices + vertices / 8));

    struct Range {
        std::size_t lo = 0;
        std::size_t hi = 0;
        std::size_t count = 0;  // faces inserted or deferred
        std::vector<Simplex> deferred;
        bool constructed = false;
    };
    std::allocator<Simplex> alloc;
    for (;;) {
        // A one-thread build starts no pool.
        const std::size_t num_ranges =
            num_threads <= 1
                ? 1
                : std::max<std::size_t>(
                      1, std::min({std::size_t{num_threads},
                                   std::size_t{exec::Scheduler::shared()
                                                   .worker_count()},
                                   slot_count / kMinRangeSlots}));
        std::vector<Range> ranges(num_ranges);
        for (std::size_t r = 0; r < num_ranges; ++r) {
            ranges[r].lo = r * slot_count / num_ranges;
            ranges[r].hi = (r + 1) * slot_count / num_ranges;
        }
        Simplex* const slots = alloc.allocate(slot_count);
        std::atomic<bool> overflow{false};
        const auto fill = [&](std::size_t r) {
            Range& range = ranges[r];
            std::uninitialized_default_construct(slots + range.lo,
                                                 slots + range.hi);
            range.constructed = true;
            const std::size_t capacity = 3 * (range.hi - range.lo) / 4;
            // The faces of a facet are hashed in batches, and the home
            // slots in this range prefetched, before any is probed, so
            // the probes' cache misses overlap.
            constexpr std::size_t kBatch = 16;
            std::size_t homes[kBatch];
            VertexId face[kMaxFacetVertices];
            const auto gather = [&face](std::span<const VertexId> v,
                                        std::size_t mask) {
                std::size_t k = 0;
                for (std::size_t i = 0; i < v.size(); ++i) {
                    if (mask & (std::size_t{1} << i)) face[k++] = v[i];
                }
                return std::span<const VertexId>(face, k);
            };
            const auto mine = [&range](std::size_t home) {
                return home >= range.lo && home < range.hi;
            };
            for (const Simplex& f : facets) {
                if (overflow.load(std::memory_order_relaxed)) return;
                const std::span<const VertexId> v = f.vertices();
                const std::size_t end = std::size_t{1} << v.size();
                for (std::size_t first = 1; first < end; first += kBatch) {
                    const std::size_t n = std::min(kBatch, end - first);
                    for (std::size_t b = 0; b < n; ++b) {
                        homes[b] = home_slot(hash_range(gather(v, first + b)),
                                             slot_count);
                        if (mine(homes[b])) __builtin_prefetch(slots + homes[b]);
                    }
                    for (std::size_t b = 0; b < n; ++b) {
                        if (!mine(homes[b])) continue;
                        const std::span<const VertexId> vs = gather(v, first + b);
                        std::size_t i = homes[b];
                        while (i < range.hi && !slots[i].empty() &&
                               !std::ranges::equal(slots[i].vertices(), vs)) {
                            ++i;
                        }
                        if (i < range.hi && !slots[i].empty()) continue;
                        if (++range.count > capacity) {
                            overflow.store(true, std::memory_order_relaxed);
                            return;
                        }
                        if (i == range.hi) {
                            range.deferred.emplace_back(vs);
                        } else {
                            slots[i] = Simplex(vs);
                        }
                    }
                }
            }
        };
        const auto free_slots = [&] {
            std::destroy_n(slots, slot_count);
            alloc.deallocate(slots, slot_count);
        };
        try {
            if (num_ranges == 1) {
                fill(0);
            } else {
                exec::for_index(exec::Scheduler::shared(), num_ranges,
                                static_cast<unsigned>(num_ranges), fill);
            }
        } catch (...) {
            // A worker that threw may have kept others from starting:
            // construct their ranges so that every slot can be freed.
            for (const Range& range : ranges) {
                if (!range.constructed) {
                    std::uninitialized_default_construct(slots + range.lo,
                                                         slots + range.hi);
                }
            }
            free_slots();
            throw;
        }
        if (overflow.load(std::memory_order_relaxed)) {
            free_slots();
            slot_count *= 2;
            ++stats.rebuilds;
            continue;
        }
        slots_ = slots;
        slot_count_ = slot_count;
        size_ = 0;
        for (const Range& range : ranges) {
            size_ += range.count - range.deferred.size();
        }
        stats.ranges = num_ranges;
        for (Range& range : ranges) {
            stats.spills += range.deferred.size();
            for (Simplex& s : range.deferred) insert(std::move(s));
        }
        return;
    }
}

bool operator==(const SimplexSet& a, const SimplexSet& b) {
    if (a.size() != b.size()) return false;
    for (const Simplex& s : a) {
        if (!b.contains(s)) return false;
    }
    return true;
}

SimplicialComplex SimplicialComplex::from_facets(
    const std::vector<Simplex>& facets, unsigned num_threads,
    ClosureStats* stats) {
    SimplicialComplex c;
    ClosureStats done;
    c.simplices_.build_closure(facets, num_threads, done);
    if (stats != nullptr) *stats = done;
    return c;
}

SimplicialComplex SimplicialComplex::from_closed(
    std::vector<Simplex> simplices) {
    SimplicialComplex c;
    c.simplices_.reserve(simplices.size());
    for (Simplex& s : simplices) {
        require(!s.empty(),
                "SimplicialComplex: cannot add the empty simplex");
        c.simplices_.insert(std::move(s));
    }
    return c;
}

void SimplicialComplex::add_simplex(const Simplex& s) {
    require(!s.empty(), "SimplicialComplex: cannot add the empty simplex");
    // Probe every face, present or not: the probes are independent, so
    // their cache misses overlap, where a walk that stops at faces
    // already present has to wait for each probe before the next.
    for (Simplex& face : s.faces()) simplices_.insert(std::move(face));
}

bool SimplicialComplex::add_with_faces_present(const Simplex& s) {
    require(!s.empty(), "SimplicialComplex: cannot add the empty simplex");
    return simplices_.insert(s);
}

std::vector<Simplex> SimplicialComplex::simplices_of_dimension(int d) const {
    std::vector<Simplex> out;
    for (const Simplex& s : simplices_) {
        if (s.dimension() == d) out.push_back(s);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Simplex> SimplicialComplex::facets() const {
    // A simplex is maximal iff it is no boundary face of another one:
    // mark the slot of every boundary face, keep the unmarked simplices.
    std::vector<bool> non_maximal(simplices_.slot_count());
    for (const Simplex& s : simplices_) {
        if (s.size() < 2) continue;
        for (VertexId v : s.vertices()) {
            const std::size_t i = simplices_.find(s.without(v));
            if (i != SimplexSet::npos) non_maximal[i] = true;
        }
    }
    std::vector<Simplex> out;
    for (std::size_t i = 0; i < simplices_.slot_count(); ++i) {
        const Simplex& s = simplices_.slot(i);
        if (!s.empty() && !non_maximal[i]) out.push_back(s);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<VertexId> SimplicialComplex::vertex_ids() const {
    std::vector<VertexId> out;
    for (const Simplex& s : simplices_) {
        if (s.dimension() == 0) out.push_back(s.vertices()[0]);
    }
    std::sort(out.begin(), out.end());
    return out;
}

int SimplicialComplex::dimension() const {
    int d = -1;
    for (const Simplex& s : simplices_) d = std::max(d, s.dimension());
    return d;
}

bool SimplicialComplex::is_pure(int n) const {
    if (dimension() > n) return false;
    // Every simplex must be a face of some n-simplex. It suffices to check
    // maximality: every facet has dimension exactly n.
    for (const Simplex& f : facets()) {
        if (f.dimension() != n) return false;
    }
    return true;
}

SimplicialComplex SimplicialComplex::skeleton(int k) const {
    SimplicialComplex out;
    for (const Simplex& s : simplices_) {
        if (s.dimension() <= k) out.simplices_.insert(s);
    }
    return out;
}

std::vector<Simplex> SimplicialComplex::open_star(const Simplex& s) const {
    std::vector<Simplex> out;
    for (const Simplex& t : simplices_) {
        if (s.is_face_of(t)) out.push_back(t);
    }
    std::sort(out.begin(), out.end());
    return out;
}

SimplicialComplex SimplicialComplex::closed_star(const Simplex& s) const {
    SimplicialComplex out;
    for (const Simplex& t : open_star(s)) out.add_simplex(t);
    return out;
}

SimplicialComplex SimplicialComplex::link(const Simplex& s) const {
    SimplicialComplex out;
    for (const Simplex& t : simplices_) {
        if (t.intersection_with(s).empty() && contains(t.union_with(s))) {
            out.simplices_.insert(t);
        }
    }
    return out;
}

bool SimplicialComplex::is_subcomplex_of(const SimplicialComplex& other) const {
    for (const Simplex& s : simplices_) {
        if (!other.contains(s)) return false;
    }
    return true;
}

long long SimplicialComplex::euler_characteristic() const {
    long long chi = 0;
    for (const Simplex& s : simplices_) {
        chi += (s.dimension() % 2 == 0) ? 1 : -1;
    }
    return chi;
}

std::size_t SimplicialComplex::num_connected_components() const {
    // Union-find over vertices, joined along edges.
    std::vector<VertexId> verts = vertex_ids();
    std::unordered_map<VertexId, std::size_t> index;
    for (std::size_t i = 0; i < verts.size(); ++i) index[verts[i]] = i;

    std::vector<std::size_t> parent(verts.size());
    for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
    const auto find = [&](std::size_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };

    for (const Simplex& s : simplices_) {
        if (s.dimension() >= 1) {
            const std::size_t root = find(index.at(s.vertices()[0]));
            for (VertexId v : s.vertices()) parent[find(index.at(v))] = root;
        }
    }

    std::size_t components = 0;
    for (std::size_t i = 0; i < parent.size(); ++i) {
        if (find(i) == i) ++components;
    }
    return components;
}

}  // namespace gact::topo
