// The set-up half of solve_chromatic_map (core/chromatic_csp.h): the
// assignment order, the initial domains, the fixed-vertex root
// propagation and the candidate ranking. Internal to the solver; exposed
// so tests can hold each stage against a plain reference
// (tests/csp_setup_test.cpp).
//
// Every stage costs near-linear time in the constraint structure:
//  * decompose: one pass for the components, one for their members, and
//    per component a max-heap for the maximum-cardinality order;
//  * initial_domains: the color-matching codomain list once per color,
//    and the per-vertex constraint filter once per distinct constraint
//    complex;
//  * propagate_fixed: each simplex incident to a fixed vertex once, its
//    one free vertex (if any) filtered through the codomain cofaces of
//    the fixed images, its constraint complex resolved through the
//    solve's ConstraintTable (which the search then reads);
//  * rank_domains: the caller's order applied to the surviving
//    candidates only.
#pragma once

#include <vector>

#include "core/chromatic_csp.h"
#include "core/eval_cache.h"
#include "topology/adjacency_index.h"

namespace gact::core::csp_setup {

/// Per-vertex candidate lists, indexed by domain vertex id; ids that are
/// not domain vertices hold empty lists.
using DomainTable = std::vector<std::vector<VertexId>>;

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

/// The candidates of every domain vertex, ascending by id: for a fixed
/// vertex its fixed value, for a free vertex every codomain vertex of its
/// color; either way only the codomain vertices w with {w} in the
/// vertex's own constraint complex.
DomainTable initial_domains(const ChromaticMapProblem& problem);

/// Root propagation of the fixed assignments: forward checking at the
/// root of the search, done once per solve. Every domain simplex sigma
/// incident to a fixed vertex is visited once:
///  * all vertices fixed: the image must lie in codomain ∩ allowed(sigma);
///  * exactly one free vertex u: u keeps only the w whose image
///    tau ∪ {w} (tau the fixed images; w ∈ tau collapses it to tau) lies
///    in codomain ∩ allowed(sigma).
/// Each filter is an intersection, so the result does not depend on the
/// visiting order. Returns false on a root conflict: an empty fixed
/// domain, a violated all-fixed simplex, or a free domain a filter left
/// empty. Filters keep the surviving candidates in their order.
/// `constraints` resolves allowed(sigma) by `index`'s constraint ids.
bool propagate_fixed(const ChromaticMapProblem& problem,
                     const topo::AdjacencyIndex& index,
                     ConstraintTable& constraints,
                     const std::vector<VertexId>& fixed_order,
                     DomainTable& domains);

/// Apply problem.order_candidates to every list of two or more
/// candidates (a no-op when the problem has no order). Because the order
/// is a strict total order fixed per vertex, ranking a filtered list
/// gives exactly the subsequence of the ranked full list.
void rank_domains(const ChromaticMapProblem& problem, DomainTable& domains);

}  // namespace gact::core::csp_setup
