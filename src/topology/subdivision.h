// Standard chromatic subdivisions with exact geometry (paper, Section 3.2),
// plus the partial ("terminating") variant of Section 6.1.
//
// A SubdividedComplex is a chromatic complex together with
//  * a base chromatic complex it subdivides,
//  * an exact rational position in |base| for every vertex (from which the
//    carrier in the base complex is the coordinate support), and
//  * for complexes produced by a subdivision step, the provenance of every
//    vertex: the pair (p, tau) of Section 3.2, where tau is a simplex of
//    the parent complex and p a vertex of tau.
//
// The vertices of Chr C are the pairs (p, tau); the vertex (p, {p}) is
// identified with the parent vertex p. The facets of Chr C inside a parent
// facet F correspond to the ordered set partitions of F's vertices: for
// partition (B_1, .., B_r), the facet is { (v, B_1 ∪ .. ∪ B_{j(v)}) } where
// j(v) is v's block. Geometrically, vertex (p, tau) sits at
//   1/(2k-1) * pos(p) + 2/(2k-1) * sum_{q in tau, q != p} pos(q),
// with k = |tau| (paper, Section 3.2).
#pragma once

#include <functional>
#include <optional>

#include "topology/chromatic_complex.h"
#include "topology/geometry.h"
#include "topology/simplicial_map.h"
#include "topology/vertex_table.h"

namespace gact::topo {

/// A chromatic complex realized as a subdivision of a base complex.
class SubdividedComplex {
public:
    /// An empty placeholder; assign a real subdivision before use.
    SubdividedComplex() = default;

    /// The trivial subdivision: the base complex itself.
    static SubdividedComplex identity(const ChromaticComplex& base);

    /// One standard chromatic subdivision step applied to this complex.
    /// `num_threads > 1` shards the build into per-parent-facet work
    /// units (see chromatic_subdivision_with_termination).
    SubdividedComplex chromatic_subdivision(unsigned num_threads = 1) const;

    /// One *partial* chromatic subdivision step (Section 6.1): simplices
    /// for which `terminated` returns true are not subdivided. A vertex
    /// (p, tau) with tau terminated and |tau| > 1 is collapsed onto the
    /// parent vertex p; facets are the images of the ordinary Chr facets
    /// under this collapse. `terminated` must be closed under faces on the
    /// simplices where it returns true (a subcomplex predicate).
    ///
    /// `num_threads > 1` shards the build across a self-scheduling pool
    /// in per-parent-facet work units: facet-key generation and the
    /// exact rational vertex geometry run in parallel, with vertex
    /// interning merged in the sequential build's enumeration order, and
    /// the closure of the facet list splits into slot ranges
    /// (SimplicialComplex::from_facets). Every vertex id, facet,
    /// simplex, position and provenance is identical to the
    /// single-threaded build's; only the slot order of the complex's
    /// table may differ. `terminated` must then be safe for concurrent
    /// calls (a pure predicate over an immutable complex is).
    SubdividedComplex chromatic_subdivision_with_termination(
        const std::function<bool(const Simplex&)>& terminated,
        unsigned num_threads = 1) const;

    /// k iterated chromatic subdivisions of the base complex.
    static SubdividedComplex iterated_chromatic(const ChromaticComplex& base,
                                                int k);

    /// The barycentric subdivision, colored by simplex dimension (the
    /// barycenter of a d-simplex gets color d; flags make this proper).
    /// Note this changes the coloring scheme; it is provided for the
    /// classical approximation results of Section 8.1.
    SubdividedComplex barycentric_subdivision() const;

    const ChromaticComplex& base() const noexcept { return base_; }
    const ChromaticComplex& complex() const noexcept { return complex_; }

    /// The facets of complex(), sorted: the list the build produced the
    /// complex from, kept so no caller re-derives it from the simplices.
    const std::vector<Simplex>& facets() const noexcept { return facets_; }

    /// Number of subdivision steps applied since `identity` (0 for it).
    int depth() const noexcept { return depth_; }

    /// Every vertex id is below this bound (ids are dense from a
    /// subdivision step on; the base complex's may have gaps).
    std::size_t vertex_id_bound() const noexcept { return position_.size(); }

    /// Exact position of a subdivision vertex in |base|.
    const BaryPoint& position(VertexId v) const;

    /// Carrier of a vertex: the minimal base simplex containing it (the
    /// support of its position, kept in a table by vertex id).
    const Simplex& carrier(VertexId v) const;

    /// Carrier of a simplex: the minimal base simplex containing all its
    /// vertices (the union of vertex carriers).
    Simplex carrier_of(const Simplex& s) const;

    /// Positions of all vertices of a simplex, in vertex order.
    std::vector<BaryPoint> positions_of(const Simplex& s) const;

    /// Provenance of a vertex created by the last subdivision step:
    /// the pair (parent vertex p, parent simplex tau). Unset for depth 0.
    struct Provenance {
        VertexId parent_vertex;
        Simplex parent_simplex;
    };
    const Provenance& provenance(VertexId v) const;

    /// The vertex (p, tau) created by the last subdivision step. For
    /// |tau| == 1 this is the surviving parent vertex. Requires depth > 0
    /// and, for the terminated variant, tau not terminated (or singleton).
    VertexId vertex_for(VertexId parent_vertex,
                        const Simplex& parent_simplex) const;

    /// Looks up a vertex by exact position and color; the smallest id
    /// when several vertices share both. One hash probe through the
    /// maintained (position, color) index — the terminating subdivision's
    /// stable-persistence pass calls this once per stable vertex per
    /// stage, and the index is what keeps heavy stages (L_t at n = 3)
    /// from going quadratic in the stage complex.
    std::optional<VertexId> find_vertex(const BaryPoint& position,
                                        Color color) const;

    /// The facet of this subdivision corresponding to one ordered partition
    /// (by *vertex* blocks) of a parent facet; see the header comment.
    /// Requires depth > 0.
    Simplex facet_for_partition(
        const Simplex& parent_facet,
        const std::vector<std::vector<VertexId>>& blocks) const;

    /// The canonical chromatic retraction Chr C -> C mapping (p, tau) to p.
    /// Requires depth > 0.
    SimplicialMap retraction_to_parent(const ChromaticComplex& parent) const;

    /// All facets of this complex whose realization contains `p`.
    std::vector<Simplex> facets_containing(const BaryPoint& p) const;

    /// Subdivision-exactness check: for every base facet F, the facets of
    /// this complex carried by F have positive volume and their volumes sum
    /// to vol(F); throws invariant_error otherwise. Exact arithmetic.
    void verify_subdivision_exactness() const;

private:
    SubdividedComplex subdivide_impl(
        const std::function<bool(const Simplex&)>& terminated,
        unsigned num_threads) const;

    /// The vertex whose provenance is (p, tau), if any.
    std::optional<VertexId> find_provenance(VertexId p,
                                            const Simplex& tau) const;

    /// The id of the vertex with provenance (p, tau); a new vertex, with
    /// the next id, when there is none yet.
    VertexId intern_provenance(VertexId p, const Simplex& tau);

    /// Fill position_index_ from position_ and complex_'s colors, in
    /// ascending id order, so find_vertex returns the smallest id.
    void index_positions();

    ChromaticComplex base_;
    ChromaticComplex complex_;
    std::vector<Simplex> facets_;               // facets of complex_, sorted
    std::vector<BaryPoint> position_;           // indexed by VertexId
    std::vector<Simplex> carrier_;              // position_[v].support()
    std::vector<Provenance> provenance_;        // indexed by VertexId
    /// provenance (p, tau) -> vertex id; keys read from provenance_.
    VertexTable vertex_index_;
    /// (position, color) -> smallest vertex id there; keys read from
    /// position_ and complex_'s colors, so find_vertex is a hash probe,
    /// not a linear scan with exact rational comparisons per candidate.
    VertexTable position_index_;
    int depth_ = 0;
};

}  // namespace gact::topo
