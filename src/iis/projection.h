// The run <-> subdivision correspondence and affine projection (paper,
// Section 5).
//
// A run of IIS corresponds to a sequence of simplices sigma_k in Chr^k s
// with |sigma_{k+1}| ⊆ |sigma_k|: the k-th views of the processes of round
// k are vertices of Chr^k s (the pair (previous own vertex, simplex of
// seen vertices) is exactly a Chr vertex (p, tau)), and sigma_k is the
// simplex they span. Every run converges to a point of |s| — the affine
// projection pi(r) — whose canonical coloring is fast(r).
#pragma once

#include <vector>

#include "iis/run.h"
#include "topology/subdivision.h"

namespace gact::iis {

/// A lazily-extended chain s = Chr^0 I, Chr^1 I, Chr^2 I, ...
class SubdivisionChain {
public:
    explicit SubdivisionChain(const topo::ChromaticComplex& base);

    /// The subdivision Chr^k I, building intermediate levels as needed.
    const topo::SubdividedComplex& level(std::size_t k);

    /// Number of levels built so far (>= 1; level 0 always exists).
    std::size_t built() const noexcept { return levels_.size(); }

    const topo::ChromaticComplex& base() const { return levels_[0].base(); }

private:
    std::vector<topo::SubdividedComplex> levels_;
};

/// The vertex of Chr^k(base) corresponding to view(p, k) in the run, when
/// all processes start on the facet `input_facet` of the base complex
/// (vertex of color p of that facet at k = 0). Requires p to be in round k
/// (1-indexed steps) or k == 0.
topo::VertexId view_vertex(SubdivisionChain& chain, const Run& run,
                           ProcessId p, std::size_t k,
                           const topo::Simplex& input_facet);

/// sigma_k: the simplex of Chr^k(base) spanned by the k-th views of the
/// processes of round k (all participants for k == 0).
topo::Simplex run_simplex(SubdivisionChain& chain, const Run& run,
                          std::size_t k, const topo::Simplex& input_facet);

/// The l1 diameter of the realization of a simplex of Chr^k(base).
Rational simplex_diameter(const topo::SubdividedComplex& level,
                          const topo::Simplex& s);

/// Exact positions in |s| of all views up to round `k`, computed directly
/// from the subdivision formula (Section 3.2) without materializing
/// Chr^k: pos(p, 0) is the base vertex colored p of `input_facet`, and
/// pos(p, m) = 1/(2c-1) pos(p, m-1) + 2/(2c-1) sum of the other seen
/// positions, with c the snapshot size. table[m][p] is empty once p has
/// dropped out.
std::vector<std::vector<std::optional<topo::BaryPoint>>> view_positions(
    const Run& run, std::size_t k,
    const std::vector<topo::VertexId>& input_vertex_of_process);

/// Row m of view_positions' table from row m - 1 (m >= 1), for callers
/// that advance one round at a time: every extra round multiplies the
/// denominators by up to (2c-1), so a table built past the round a
/// caller stops at can overflow the exact arithmetic for nothing.
std::vector<std::optional<topo::BaryPoint>> next_view_positions(
    const Run& run, std::size_t m,
    const std::vector<std::optional<topo::BaryPoint>>& previous);

/// The positions spanning sigma_k: the k-th views of round k's processes
/// (participants for k = 0). These are the points whose containment in a
/// stable simplex realizes the landing condition of Theorem 6.1.
std::vector<topo::BaryPoint> run_simplex_positions(
    const Run& run, std::size_t k,
    const std::vector<topo::VertexId>& input_vertex_of_process);

}  // namespace gact::iis
