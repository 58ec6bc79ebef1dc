// The set-up half of solve_chromatic_map (core/chromatic_csp.h): the
// assignment order, the initial domains, the fixed-vertex checks and
// root propagation, and the candidate ranking. Internal to the solver;
// exposed so tests can hold each stage against a plain reference
// (tests/csp_setup_test.cpp).
//
// The solver sets up one component at a time. The decomposition and the
// fixed vertices come first, for the whole problem; then, just before a
// component is searched, its own domains are built, propagated and
// ranked. So the set-up of a component the search never reaches (because
// an earlier one exhausts) is never paid for, and no stage holds a table
// over every domain vertex's candidates.
//
// Every stage costs near-linear time in the part of the constraint
// structure it is handed:
//  * decompose: one pass for the components, one for their members, and
//    per component a max-heap for the maximum-cardinality order;
//  * initial_domains: the listed vertices only, each copying the
//    candidate list of its (constraint complex, color), built once per
//    distinct pair;
//  * FixedRoot::check: each domain simplex whose vertices are all fixed
//    once, from its smallest vertex;
//  * FixedRoot::propagate: each simplex whose one free vertex is listed
//    and whose other vertices are fixed once, the free vertex filtered
//    through the codomain cofaces of the fixed images, its constraint
//    complex resolved through the solve's ConstraintTable (which the
//    search then reads);
//  * rank_domains: the caller's order applied to the listed lists.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/chromatic_csp.h"
#include "core/eval_cache.h"
#include "topology/adjacency_index.h"

namespace gact::core::csp_setup {

/// Candidate lists parallel to a vertex list: entry i holds the
/// candidates of the i-th listed vertex.
using DomainLists = std::vector<std::vector<VertexId>>;

/// The fixed vertices in ascending id order, and the free vertices split
/// into connected components (free-free adjacency). Given the fixed
/// assignments the components are independent subproblems, solved
/// separately to avoid cross-component thrashing.
///
/// Components are numbered in order of their smallest vertex. Each comes
/// in its static maximum-cardinality order: always the vertex adjacent to
/// the most already-ordered vertices (fixed vertices count as ordered),
/// ties to the smallest id, so contradictions surface immediately.
struct Decomposition {
    std::vector<VertexId> fixed_order;
    std::vector<std::vector<VertexId>> component_orders;
};

/// Requires every fixed vertex to be a domain vertex. `index` needs only
/// its neighbor lists.
Decomposition decompose(const ChromaticMapProblem& problem,
                        const topo::AdjacencyIndex& index);

/// The candidates of each listed domain vertex, ascending by id: for a
/// fixed vertex its fixed value, for a free vertex every codomain vertex
/// of its color; either way only the codomain vertices w with {w} in the
/// vertex's own constraint complex.
DomainLists initial_domains(const ChromaticMapProblem& problem,
                            std::span<const VertexId> vertices);

/// The fixed assignment of one solve, as the fast engine's set-up reads
/// it: checked once, then propagated into one component at a time.
/// Holds references to its arguments, which must outlive it.
class FixedRoot {
public:
    /// `fixed_domains` is initial_domains(problem, fixed_order).
    /// `constraints` resolves allowed(sigma) by `index`'s constraint ids;
    /// `index` needs its incident simplices.
    FixedRoot(const ChromaticMapProblem& problem,
              const topo::AdjacencyIndex& index,
              ConstraintTable& constraints,
              const std::vector<VertexId>& fixed_order,
              const DomainLists& fixed_domains);

    /// The all-fixed constraint checks. False when a fixed value is
    /// rejected (an empty fixed domain) or a domain simplex whose
    /// vertices are all fixed has its image outside
    /// codomain ∩ allowed(sigma). Such a conflict involves no search
    /// decision, so it proves the problem unsatisfiable outright.
    bool check();

    /// Root propagation into the listed vertices (the members of one
    /// component; `domains` parallel to them): forward checking at the
    /// root of the search. Every domain simplex sigma whose one free
    /// vertex u is listed and whose other vertices are all fixed is
    /// visited once, and u keeps only the w whose image tau ∪ {w} (tau
    /// the fixed images; w ∈ tau collapses it to tau) lies in
    /// codomain ∩ allowed(sigma). Each filter is an intersection, so the
    /// result does not depend on the visiting order, and a component's
    /// result does not depend on the other components. Filters keep the
    /// surviving candidates in their order. Returns false when a filter
    /// leaves a domain empty: that component, and so the problem, is
    /// unsatisfiable. Requires check() to have passed.
    bool propagate(std::span<const VertexId> vertices, DomainLists& domains);

private:
    static constexpr VertexId kFree = 0xffffffffu;

    bool is_fixed(VertexId x) const;
    /// Fill images_ with the fixed images of sigma's vertices other than
    /// `skip` (kFree skips none), which must all be fixed.
    void fixed_images(const Simplex& sigma, VertexId skip);

    const ChromaticMapProblem& problem_;
    const topo::AdjacencyIndex& index_;
    ConstraintTable& constraints_;
    const std::vector<VertexId>& fixed_order_;
    const DomainLists& fixed_domains_;
    /// The fixed value by vertex id, up to the largest fixed vertex;
    /// kFree for the free ones.
    std::vector<VertexId> value_;
    /// The domain simplices with exactly one free vertex, listed by it
    /// (CSR by vertex id, each list in table order); filled by check().
    std::vector<std::uint32_t> one_free_offsets_;
    std::vector<const Simplex*> one_free_;
    /// The codomain's vertex/simplex incidence, built on first filter.
    std::optional<topo::AdjacencyIndex> cofaces_;
    std::vector<char> hit_;  // by codomain id: w survives this filter
    std::vector<VertexId> hits_;
    std::vector<VertexId> images_;
};

/// Apply problem.order_candidates to every listed list of two or more
/// candidates (`domains` parallel to `vertices`; a no-op when the
/// problem has no order). Because the order is a strict total order
/// fixed per vertex, ranking a filtered list gives exactly the
/// subsequence of the ranked full list.
void rank_domains(const ChromaticMapProblem& problem,
                  std::span<const VertexId> vertices, DomainLists& domains);

}  // namespace gact::core::csp_setup
