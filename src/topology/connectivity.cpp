#include "topology/connectivity.h"

#include <algorithm>
#include <numeric>

#include "topology/homology.h"

namespace gact::topo {

std::string LinkConnectivityReport::to_string() const {
    if (link_connected) return "link-connected";
    std::string out = "not link-connected";
    if (witness) {
        out += ": link of " + witness->to_string() + " is not " +
               std::to_string(required_connectivity) + "-connected";
    }
    return out;
}

LinkConnectivityReport check_link_connected(const SimplicialComplex& complex) {
    LinkConnectivityReport report;
    const int n = complex.dimension();
    const SimplexSet& simplices = complex.simplices();

    // The star of every vertex, as the table slots of the simplices
    // containing it (CSR by the vertex's rank among the sorted ids).
    const std::vector<VertexId> vertices = complex.vertex_ids();
    const auto rank_of = [&vertices](VertexId v) {
        return static_cast<std::size_t>(
            std::ranges::lower_bound(vertices, v) - vertices.begin());
    };
    std::vector<std::size_t> star_begin(vertices.size() + 1, 0);
    for (const Simplex& u : simplices) {
        for (VertexId v : u.vertices()) ++star_begin[rank_of(v) + 1];
    }
    std::partial_sum(star_begin.begin(), star_begin.end(), star_begin.begin());
    std::vector<std::size_t> star(star_begin.back());
    std::vector<std::size_t> fill(star_begin.begin(), star_begin.end() - 1);
    for (std::size_t slot = 0; slot < simplices.slot_count(); ++slot) {
        for (VertexId v : simplices.slot(slot).vertices()) {
            star[fill[rank_of(v)]++] = slot;
        }
    }

    for (const Simplex& sigma : simplices) {
        const int required = n - sigma.dimension() - 2;
        if (required <= -2) continue;  // vacuous
        // link(sigma) = {u \ sigma : u ⊋ sigma}, read off the smallest
        // star among sigma's vertices. It is closed: a face w of u \ sigma
        // is (w ∪ sigma) \ sigma, and w ∪ sigma is a face of u.
        std::size_t smallest = 0;
        std::size_t smallest_size = SimplexSet::npos;
        for (VertexId v : sigma.vertices()) {
            const std::size_t r = rank_of(v);
            if (star_begin[r + 1] - star_begin[r] < smallest_size) {
                smallest = r;
                smallest_size = star_begin[r + 1] - star_begin[r];
            }
        }
        std::vector<Simplex> link;
        for (std::size_t i = star_begin[smallest];
             i < star_begin[smallest + 1]; ++i) {
            const Simplex& u = simplices.slot(star[i]);
            if (u.size() > sigma.size() && sigma.is_face_of(u)) {
                link.push_back(u.difference(sigma));
            }
        }
        if (!is_k_connected(SimplicialComplex::from_closed(std::move(link)),
                            required)) {
            report.link_connected = false;
            report.witness = sigma;
            report.required_connectivity = required;
            return report;
        }
    }
    report.link_connected = true;
    return report;
}

}  // namespace gact::topo
