#include "topology/adjacency_index.h"

#include "util/require.h"

namespace gact::topo {

namespace {

/// Turn per-vertex counts (at index v + 1) into CSR start offsets.
void prefix_sum(std::vector<std::uint32_t>& offsets) {
    for (std::size_t i = 1; i < offsets.size(); ++i) {
        offsets[i] += offsets[i - 1];
    }
}

}  // namespace

AdjacencyIndex::AdjacencyIndex(const SimplicialComplex& complex,
                               bool index_simplices) {
    // Pass 1: the id range and the per-vertex counts.
    VertexId max_vertex = 0;
    std::size_t count = 0;
    for (const Simplex& sigma : complex.simplices()) {
        if (sigma.dimension() < 1) continue;
        ++count;
        max_vertex = std::max(max_vertex, sigma.vertices().back());
    }
    if (count == 0) return;
    const std::size_t slots = static_cast<std::size_t>(max_vertex) + 2;
    neighbor_offsets_.assign(slots, 0);
    if (index_simplices) incident_offsets_.assign(slots, 0);
    std::size_t incidences = 0;
    for (const Simplex& sigma : complex.simplices()) {
        if (sigma.dimension() < 1) continue;
        for (VertexId v : sigma.vertices()) {
            if (index_simplices) ++incident_offsets_[v + 1];
            if (sigma.dimension() == 1) ++neighbor_offsets_[v + 1];
        }
        incidences += sigma.size();
    }
    require(incidences <= UINT32_MAX,
            "AdjacencyIndex: complex too large for 32-bit offsets");
    prefix_sum(neighbor_offsets_);

    // Pass 2: fill, in the complex's iteration order, with pointers into
    // the complex's own table.
    std::vector<std::uint32_t> fill(neighbor_offsets_.begin(),
                                    neighbor_offsets_.end() - 1);
    neighbors_.resize(neighbor_offsets_.back());
    std::vector<std::uint32_t> incident_fill;
    if (index_simplices) {
        prefix_sum(incident_offsets_);
        incident_fill.assign(incident_offsets_.begin(),
                             incident_offsets_.end() - 1);
        incident_.resize(incident_offsets_.back());
        first_slot_ = &complex.simplices().slot(0);
        id_bound_ = complex.simplices().slot_count();
    }
    for (const Simplex& sigma : complex.simplices()) {
        if (sigma.dimension() < 1) continue;
        if (index_simplices) {
            for (VertexId v : sigma.vertices()) {
                incident_[incident_fill[v]++] = &sigma;
            }
        }
        if (sigma.dimension() == 1) {
            const VertexId a = sigma.vertices()[0];
            const VertexId b = sigma.vertices()[1];
            neighbors_[fill[a]++] = b;
            neighbors_[fill[b]++] = a;
        }
    }

    // A complex holds each edge once, so sorting makes every neighbor
    // list a sorted set.
    for (std::size_t v = 0; v + 1 < neighbor_offsets_.size(); ++v) {
        std::sort(neighbors_.begin() + neighbor_offsets_[v],
                  neighbors_.begin() + neighbor_offsets_[v + 1]);
    }
}

}  // namespace gact::topo
