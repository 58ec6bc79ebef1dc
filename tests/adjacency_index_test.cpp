#include "topology/adjacency_index.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace gact::topo {
namespace {

TEST(AdjacencyIndex, EmptyComplex) {
    const SimplicialComplex empty;
    const AdjacencyIndex index(empty);
    EXPECT_EQ(index.id_bound(), 0u);
    EXPECT_TRUE(index.incident_simplices(0).empty());
    EXPECT_TRUE(index.neighbors(0).empty());
    EXPECT_EQ(index.degree(0), 0u);
}

TEST(AdjacencyIndex, TriangleIncidence) {
    const SimplicialComplex triangle =
        SimplicialComplex::from_facets({Simplex{0, 1, 2}});
    const AdjacencyIndex index(triangle);
    // Vertex 0 lies in the triangle and its two incident edges.
    EXPECT_EQ(index.incident_simplices(0).size(), 3u);
    EXPECT_EQ(index.neighbors(0), (std::vector<VertexId>{1, 2}));
    EXPECT_EQ(index.degree(1), 2u);
    // 0-simplices are not constraints, so they are not indexed.
    for (const Simplex* sigma : index.incident_simplices(0)) {
        EXPECT_GE(sigma->dimension(), 1);
        EXPECT_TRUE(sigma->contains(0));
    }
    // The entries are the complex's own simplices, and a constraint id
    // is the slot holding one.
    EXPECT_EQ(index.id_bound(), triangle.simplices().slot_count());
    for (const Simplex* sigma : index.incident_simplices(1)) {
        ASSERT_LT(index.id_of(sigma), index.id_bound());
        EXPECT_EQ(sigma, &triangle.simplices().slot(index.id_of(sigma)));
        EXPECT_EQ(triangle.simplices().find(*sigma), index.id_of(sigma));
    }
}

TEST(AdjacencyIndex, IsolatedVertexHasNoIncidence) {
    SimplicialComplex cx =
        SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{5}});
    const AdjacencyIndex index(cx);
    EXPECT_TRUE(index.incident_simplices(5).empty());
    EXPECT_EQ(index.degree(5), 0u);
    EXPECT_EQ(index.neighbors(0), (std::vector<VertexId>{1}));
}

TEST(AdjacencyIndex, NeighborsAreSortedAndUnique) {
    // Two facets sharing vertex 1: neighbor lists must dedupe shared
    // edges and come back sorted.
    const SimplicialComplex cx = SimplicialComplex::from_facets(
        {Simplex{0, 1, 2}, Simplex{1, 2, 3}});
    const AdjacencyIndex index(cx);
    EXPECT_EQ(index.neighbors(1), (std::vector<VertexId>{0, 2, 3}));
    EXPECT_EQ(index.neighbors(2), (std::vector<VertexId>{0, 1, 3}));
    const auto& inc = index.incident_simplices(1);
    // Edges {0,1},{1,2},{1,3} plus triangles {0,1,2},{1,2,3}.
    EXPECT_EQ(inc.size(), 5u);
}

TEST(AdjacencyIndex, NeighborsOnlyModeSkipsSimplexLists) {
    const SimplicialComplex triangle =
        SimplicialComplex::from_facets({Simplex{0, 1, 2}});
    const AdjacencyIndex index(triangle, /*index_simplices=*/false);
    EXPECT_TRUE(index.incident_simplices(0).empty());
    EXPECT_EQ(index.neighbors(0), (std::vector<VertexId>{1, 2}));
    EXPECT_EQ(index.degree(2), 2u);
}

}  // namespace
}  // namespace gact::topo
