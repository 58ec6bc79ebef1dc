#include "iis/projection.h"

#include "util/require.h"

namespace gact::iis {

SubdivisionChain::SubdivisionChain(const topo::ChromaticComplex& base) {
    levels_.push_back(topo::SubdividedComplex::identity(base));
}

const topo::SubdividedComplex& SubdivisionChain::level(std::size_t k) {
    while (levels_.size() <= k) {
        levels_.push_back(levels_.back().chromatic_subdivision());
    }
    return levels_[k];
}

topo::VertexId view_vertex(SubdivisionChain& chain, const Run& run,
                           ProcessId p, std::size_t k,
                           const topo::Simplex& input_facet) {
    const topo::ChromaticComplex& base = chain.base();
    require(base.contains(input_facet),
            "view_vertex: input facet not in the base complex");
    if (k == 0) {
        return base.vertex_with_color(input_facet, p);
    }
    const OrderedPartition& round = run.round(k - 1);
    require(round.contains(p), "view_vertex: process not in this round");
    // The simplex of (k-1)-views p saw; p's own previous vertex is the
    // provenance vertex of the Chr pair.
    std::vector<topo::VertexId> seen;
    for (ProcessId q : round.snapshot_of(p).members()) {
        seen.push_back(view_vertex(chain, run, q, k - 1, input_facet));
    }
    const topo::VertexId own = view_vertex(chain, run, p, k - 1, input_facet);
    return chain.level(k).vertex_for(own, topo::Simplex(std::move(seen)));
}

topo::Simplex run_simplex(SubdivisionChain& chain, const Run& run,
                          std::size_t k, const topo::Simplex& input_facet) {
    const ProcessSet procs =
        k == 0 ? run.participants() : run.round(k - 1).support();
    std::vector<topo::VertexId> verts;
    for (ProcessId p : procs.members()) {
        verts.push_back(view_vertex(chain, run, p, k, input_facet));
    }
    const topo::Simplex out{std::move(verts)};
    ensure(chain.level(k).complex().contains(out),
           "run_simplex: views do not span a simplex of Chr^k");
    return out;
}

std::vector<std::vector<std::optional<topo::BaryPoint>>> view_positions(
    const Run& run, std::size_t k,
    const std::vector<topo::VertexId>& input_vertex_of_process) {
    const std::uint32_t n = run.num_processes();
    require(input_vertex_of_process.size() == n,
            "view_positions: one input vertex per process");
    std::vector<std::vector<std::optional<topo::BaryPoint>>> table;
    table.reserve(k + 1);
    table.emplace_back(n);
    for (ProcessId p = 0; p < n; ++p) {
        table[0][p] = topo::BaryPoint::vertex(input_vertex_of_process[p]);
    }
    for (std::size_t m = 1; m <= k; ++m) {
        table.push_back(next_view_positions(run, m, table.back()));
    }
    return table;
}

std::vector<std::optional<topo::BaryPoint>> next_view_positions(
    const Run& run, std::size_t m,
    const std::vector<std::optional<topo::BaryPoint>>& previous) {
    require(m >= 1, "next_view_positions: round numbers start at 1");
    const OrderedPartition& round = run.round(m - 1);
    std::vector<std::optional<topo::BaryPoint>> row(previous.size());
    for (ProcessId p : round.support().members()) {
        const ProcessSet snap = round.snapshot_of(p);
        const auto c = static_cast<std::int64_t>(snap.size());
        std::vector<topo::BaryPoint> pts;
        std::vector<Rational> weights;
        for (ProcessId q : snap.members()) {
            ensure(q < previous.size() && previous[q].has_value(),
                   "view_positions: snapshot of dropped process");
            pts.push_back(*previous[q]);
            weights.emplace_back(q == p ? 1 : 2, 2 * c - 1);
        }
        row[p] = topo::BaryPoint::combination(pts, weights);
    }
    return row;
}

std::vector<topo::BaryPoint> run_simplex_positions(
    const Run& run, std::size_t k,
    const std::vector<topo::VertexId>& input_vertex_of_process) {
    const auto table = view_positions(run, k, input_vertex_of_process);
    const ProcessSet procs =
        k == 0 ? run.participants() : run.round(k - 1).support();
    std::vector<topo::BaryPoint> out;
    for (ProcessId p : procs.members()) out.push_back(*table[k][p]);
    return out;
}

Rational simplex_diameter(const topo::SubdividedComplex& level,
                          const topo::Simplex& s) {
    Rational best(0);
    const auto positions = level.positions_of(s);
    for (std::size_t i = 0; i < positions.size(); ++i) {
        for (std::size_t j = i + 1; j < positions.size(); ++j) {
            const Rational d = positions[i].l1_distance(positions[j]);
            if (d > best) best = d;
        }
    }
    return best;
}

}  // namespace gact::iis
