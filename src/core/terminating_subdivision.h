// Terminating subdivisions (paper, Section 6.1).
//
// A terminating subdivision T of a chromatic complex C is a sequence of
// complexes C_0 = C, C_1, C_2, ... together with subcomplexes
// Sigma_0 ⊆ Sigma_1 ⊆ ... of "stable" simplices: C_{k+1} is the partial
// chromatic subdivision of C_k in which the simplices of Sigma_k are
// terminated (not subdivided further). Stable simplices persist verbatim
// in all later stages. The union K(T) of all stable simplices is a
// chromatic complex whose realization sits inside |C|.
//
// Stage complexes have per-stage vertex ids; K(T) is accumulated in a
// global registry keyed by (color, exact position), so a stable vertex is
// the same K(T) vertex no matter at which stage it stabilized.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "topology/subdivision.h"
#include "topology/vertex_table.h"

namespace gact::core {

using topo::BaryPoint;
using topo::ChromaticComplex;
using topo::Color;
using topo::Simplex;
using topo::SimplicialComplex;
using topo::SubdividedComplex;
using topo::VertexId;

/// A terminating subdivision, materialized stage by stage.
class TerminatingSubdivision {
public:
    /// An empty placeholder; assign a real subdivision before use.
    TerminatingSubdivision() = default;

    explicit TerminatingSubdivision(const ChromaticComplex& base);

    /// Advance one stage: mark as stable every *not yet stable* simplex of
    /// the current complex C_k selected by `stabilize`, and record each
    /// into K(T) with its stable_since stamp. The selection, together with
    /// the already-stable simplices, must be closed under faces: a
    /// selected simplex with a codimension-1 face that is neither stable
    /// nor selected throws precondition_error naming both. The next
    /// complex C_{k+1}, the partial chromatic subdivision of C_k
    /// terminating Sigma_k, is deferred: K(T) after k advances is
    /// Sigma_0 ∪ .. ∪ Sigma_{k-1}, so C_{k+1} is built (and Sigma_k
    /// carried into it) only by the next advance() or by the first
    /// complex_at / stable_at of stage k+1.
    ///
    /// One pass touches each new simplex once. The scan asks the rule
    /// about every face of every facet (faces in vertex-mask order, so a
    /// face's faces come first) and lists the C_k slots of the selected
    /// ones; the merge keeps each slot's first occurrence in facet order,
    /// where every face precedes its cofaces, and inserts it into Sigma_k
    /// alone; the record interns it into K(T) with one probe. That
    /// first-occurrence order fixes the slot order of Sigma_k, the order
    /// of the global vertex ids and of K(T)'s simplices.
    ///
    /// `num_threads > 1` shards the stage on the shared scheduler: the
    /// scan runs in chunks of facets, merged in facet order, the
    /// subdivision build in per-facet work units, and the closure of the
    /// next stage's facets as contiguous slot ranges of its table (see
    /// SubdividedComplex::chromatic_subdivision_with_termination and
    /// SimplicialComplex::from_facets); the deferred build uses this
    /// call's `num_threads`. Every vertex id, facet, stable set and
    /// stable_since stamp is identical to the single-threaded stage's;
    /// only the slot order of the stage complex's table may differ.
    /// `stabilize` must then be a pure predicate safe for concurrent
    /// calls (every StableRule is).
    void advance(const std::function<bool(const SubdividedComplex&,
                                          const Simplex&)>& stabilize,
                 unsigned num_threads = 1);

    /// Number of stages, C_0 .. C_{stages()-1}: one more than the number
    /// of advance() calls. The last one, after an advance(), may not be
    /// built yet; reading it builds it.
    std::size_t stages() const noexcept {
        return stages_.size() + (pending_ ? 1 : 0);
    }

    /// The stage complex C_k. The first read of a deferred last stage
    /// builds it; concurrent const readers are safe, and all see the one
    /// complex. The reference stays valid across later advance() calls
    /// and moves of this object.
    const SubdividedComplex& complex_at(std::size_t k) const;

    /// The stable subcomplex Sigma_k in C_k's vertex ids (for the last
    /// stage: the Sigma_{k-1} carried into it). Builds a deferred stage
    /// as complex_at does.
    const SimplicialComplex& stable_at(std::size_t k) const;

    /// K(T) so far: the union of stable simplices, in global vertex ids.
    /// Rebuilt lazily after advance() stages (the chromatic wrapper is a
    /// full copy of the stable set, too expensive to refresh per stage).
    const ChromaticComplex& stable_complex() const;

    /// Position in |base| of a global stable vertex.
    const BaryPoint& stable_position(VertexId global_vertex) const;

    /// Carrier in the base complex of a global stable simplex.
    Simplex stable_carrier(const Simplex& global_simplex) const;

    /// Positions of a global stable simplex's vertices, in vertex order.
    std::vector<BaryPoint> stable_positions_of(const Simplex& s) const;

    /// The global id for a stable vertex given color and exact position;
    /// nullopt if no such stable vertex exists yet.
    std::optional<VertexId> find_stable_vertex(const BaryPoint& position,
                                               Color color) const;

    /// The stage at which a global stable simplex was terminated (its
    /// first appearance in some Sigma_k). A protocol may only output on a
    /// stable simplex from this many rounds on: stable simplices stand for
    /// "outputs produced after stage-many IS layers" (Section 6.1), and
    /// firing earlier breaks Definition 4.1 (2) in runs that share the
    /// early views but land elsewhere.
    std::size_t stable_since(const Simplex& global_simplex) const;

    /// The stable facets (maximal stable simplices) of K(T) so far.
    std::vector<Simplex> stable_facets() const {
        return stable_complex().complex().facets();
    }

    /// Is the realization of the global stable simplex `tau` a superset of
    /// the geometric simplex spanned by `points`? (The landing condition
    /// |sigma_k| ⊆ |tau| of Section 6.2, input-less case.)
    bool stable_simplex_contains(const Simplex& tau,
                                 const std::vector<BaryPoint>& points) const;

    const ChromaticComplex& base() const noexcept { return base_; }

private:
    struct Stage {
        SubdividedComplex complex;
        SimplicialComplex stable;  // Sigma_k, in this stage's vertex ids
    };
    /// The stage after stages_.back(), deferred by advance(): built once,
    /// under `once`, by whichever reader or advance() needs it first.
    struct Pending {
        explicit Pending(unsigned threads) : num_threads(threads) {}
        std::once_flag once;
        unsigned num_threads;
        std::unique_ptr<Stage> stage;
    };

    /// The stage at index k, built stage or pending.
    const Stage& stage_at(std::size_t k) const;

    /// Build the pending stage, if not built yet: C_{k+1} by partial
    /// chromatic subdivision of C_k terminating Sigma_k, then Sigma_k
    /// carried into it.
    const Stage& materialize() const;

    /// Intern a stage vertex into the global registry.
    VertexId global_id(const SubdividedComplex& stage_complex, VertexId v);

    ChromaticComplex base_;
    /// Built stages, each on the heap so a complex_at reference outlives
    /// the vector's growth.
    std::vector<std::unique_ptr<Stage>> stages_;
    std::unique_ptr<Pending> pending_;

    // Global stable complex and geometry. stable_ mirrors
    // stable_simplices_ + global_color_; advance() only marks it stale
    // and stable_complex() refreshes it on demand.
    mutable ChromaticComplex stable_;
    mutable bool stable_stale_ = false;
    /// (position, color) -> global id; keys read from global_position_
    /// and global_color_.
    topo::VertexTable global_index_;
    std::vector<BaryPoint> global_position_;
    std::unordered_map<VertexId, Color> global_color_;
    /// K(T)'s simplices in the order they were first stabilized, each
    /// stamped once with its stage in stable_since_; stable_index_ finds
    /// one by its std::hash (keys read from stable_simplices_), and
    /// stable_complex() builds K(T) from the list.
    std::vector<Simplex> stable_simplices_;
    std::vector<std::uint32_t> stable_since_;
    topo::VertexTable stable_index_;
};

}  // namespace gact::core
