#include "topology/simplicial_complex.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>

namespace gact::topo {

namespace {

// Fibonacci hashing: spreads std::hash<Simplex> over the top bits.
std::size_t home_slot(const Simplex& s, std::size_t slot_count) noexcept {
    const std::uint64_t h =
        static_cast<std::uint64_t>(std::hash<Simplex>{}(s)) *
        0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> (64 - std::countr_zero(slot_count)));
}

}  // namespace

std::size_t SimplexSet::probe(const Simplex& s) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home_slot(s, slots_.size());
    while (!slots_[i].empty() && !(slots_[i] == s)) i = (i + 1) & mask;
    return i;
}

std::size_t SimplexSet::find(const Simplex& s) const noexcept {
    if (slots_.empty() || s.empty()) return npos;
    const std::size_t i = probe(s);
    return slots_[i].empty() ? npos : i;
}

bool SimplexSet::insert(Simplex&& s) {
    require(!s.empty(), "SimplexSet: cannot insert the empty simplex");
    // Grow at a load factor of 3/4; linear probing degrades past it.
    if (4 * (size_ + 1) > 3 * slots_.size()) reserve(size_ + 1);
    Simplex& slot = slots_[probe(s)];
    if (!slot.empty()) return false;
    slot = std::move(s);
    ++size_;
    return true;
}

void SimplexSet::reserve(std::size_t n) {
    std::size_t count = 8;
    while (4 * n > 3 * count) count *= 2;
    if (count > slots_.size()) rehash(count);
}

void SimplexSet::rehash(std::size_t slot_count) {
    std::vector<Simplex> old(slot_count);
    old.swap(slots_);
    for (Simplex& s : old) {
        if (!s.empty()) slots_[probe(s)] = std::move(s);
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
    const std::vector<Simplex>& facets) {
    SimplicialComplex c;
    // Reserve about one element per facet vertex: neighbouring facets of
    // a subdivision share most faces, which keeps the distinct simplices
    // near that count (a 3-dimensional one has ~4.4 per facet).
    std::size_t estimate = 0;
    for (const Simplex& f : facets) estimate += f.size();
    c.simplices_.reserve(estimate);
    for (const Simplex& f : facets) c.add_simplex(f);
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
