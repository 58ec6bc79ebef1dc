#include "topology/subdivision.h"

#include <gtest/gtest.h>

#include <optional>

#include "topology/combinatorics.h"

namespace gact::topo {
namespace {

TEST(Subdivision, IdentityOfStandardSimplex) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex id = SubdividedComplex::identity(s);
    EXPECT_EQ(id.depth(), 0);
    EXPECT_TRUE(id.complex() == s);
    EXPECT_EQ(id.position(1), BaryPoint::vertex(1));
    EXPECT_EQ(id.carrier(1), Simplex({1}));
    id.verify_subdivision_exactness();
}

TEST(Subdivision, ChrOfEdge) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(1);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    EXPECT_EQ(chr.depth(), 1);
    // Chr of an edge: 4 vertices, 3 edges.
    EXPECT_EQ(chr.complex().vertex_ids().size(), 4u);
    EXPECT_EQ(chr.complex().facets().size(), 3u);
    chr.verify_subdivision_exactness();
}

TEST(Subdivision, ChrEdgeGeometry) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(1);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    // Vertex (0, {0,1}) sits at 1/3 x0 + 2/3 x1 (paper, Section 3.2).
    const VertexId v = chr.vertex_for(0, Simplex{0, 1});
    EXPECT_EQ(chr.position(v).coord(0), Rational(1, 3));
    EXPECT_EQ(chr.position(v).coord(1), Rational(2, 3));
    EXPECT_EQ(chr.complex().color(v), 0u);
    EXPECT_EQ(chr.carrier(v), Simplex({0, 1}));
}

TEST(Subdivision, ChrTriangleCounts) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    // Facets of Chr s are the 13 ordered partitions of {0,1,2}.
    EXPECT_EQ(chr.complex().facets().size(), 13u);
    // Vertices are the pairs (i, t), i in t: 3 + 6 + 3 = 12.
    EXPECT_EQ(chr.complex().vertex_ids().size(), 12u);
    // Euler characteristic of a disk is 1.
    EXPECT_EQ(chr.complex().complex().euler_characteristic(), 1);
    chr.verify_subdivision_exactness();
}

TEST(Subdivision, ChrPreservesPurityAndColors) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    EXPECT_TRUE(chr.complex().is_pure(2));
    // Every facet carries all three colors.
    for (const Simplex& f : chr.complex().facets()) {
        EXPECT_EQ(chr.complex().colors_of(f), ProcessSet::full(3));
    }
}

TEST(Subdivision, IteratedChrCountsAreProductsOfOrderedBell) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr2 = SubdividedComplex::iterated_chromatic(s, 2);
    EXPECT_EQ(chr2.depth(), 2);
    EXPECT_EQ(chr2.complex().facets().size(), 169u);  // 13^2
    chr2.verify_subdivision_exactness();
}

TEST(Subdivision, CentralFacetCarrier) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    const Simplex central = chr.facet_for_partition(
        Simplex{0, 1, 2}, {{0, 1, 2}});
    EXPECT_EQ(chr.carrier_of(central), Simplex({0, 1, 2}));
    // All three central vertices lie at distance 2/5 weights.
    for (VertexId v : central.vertices()) {
        const Color c = chr.complex().color(v);
        EXPECT_EQ(chr.position(v).coord(c), Rational(1, 5));
    }
}

TEST(Subdivision, FacetForSequentialPartition) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    const Simplex f =
        chr.facet_for_partition(Simplex{0, 1, 2}, {{0}, {1}, {2}});
    // Contains the original vertex 0 (as (0,{0})).
    const VertexId v0 = chr.vertex_for(0, Simplex{0});
    EXPECT_TRUE(f.contains(v0));
    EXPECT_EQ(chr.position(v0), BaryPoint::vertex(0));
}

TEST(Subdivision, BoundaryEdgeSubdividedConsistently) {
    // The subdivision of a shared face must be shared: Chr of the triangle
    // restricted to edge {0,1} equals Chr of that edge.
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    std::size_t edge_facets = 0;
    for (const Simplex& e : chr.complex().complex().simplices_of_dimension(1)) {
        if (chr.carrier_of(e) == Simplex({0, 1})) ++edge_facets;
    }
    EXPECT_EQ(edge_facets, 3u);  // Chr of an edge has 3 edges
}

TEST(Subdivision, RetractionToParentIsChromatic) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    const SimplicialMap r = chr.retraction_to_parent(s);
    EXPECT_TRUE(r.is_simplicial(chr.complex().complex(), s.complex()));
    EXPECT_TRUE(r.is_chromatic(chr.complex(), s));
    EXPECT_TRUE(r.is_noncollapsing(chr.complex().complex()));
}

TEST(Subdivision, TerminatedEdgeExample) {
    // The Section 6.1 figure: subdivide the triangle with edge {0,1} (and
    // its vertices) terminated. The terminated edge must survive whole.
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex id = SubdividedComplex::identity(s);
    const auto terminated = [](const Simplex& t) {
        return t.is_face_of(Simplex{0, 1});
    };
    const SubdividedComplex part =
        id.chromatic_subdivision_with_termination(terminated);
    // The whole edge {0,1} is still a simplex (via original vertex ids).
    const VertexId v0 = part.vertex_for(0, Simplex{0});
    const VertexId v1 = part.vertex_for(1, Simplex{1});
    EXPECT_TRUE(part.complex().contains(Simplex{v0, v1}));
    // No subdivision vertex in the interior of edge {0,1}.
    for (VertexId v : part.complex().vertex_ids()) {
        if (part.carrier(v) == Simplex({0, 1})) {
            FAIL() << "terminated edge has interior vertex";
        }
    }
    // Counted by hand from the collapse construction: 11 facets.
    EXPECT_EQ(part.complex().facets().size(), 11u);
    part.verify_subdivision_exactness();
}

TEST(Subdivision, FullyTerminatedComplexUnchanged) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex id = SubdividedComplex::identity(s);
    const SubdividedComplex part = id.chromatic_subdivision_with_termination(
        [](const Simplex&) { return true; });
    EXPECT_EQ(part.complex().facets().size(), 1u);
    part.verify_subdivision_exactness();
}

TEST(Subdivision, BarycentricOfTriangle) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex bary =
        SubdividedComplex::identity(s).barycentric_subdivision();
    EXPECT_EQ(bary.complex().facets().size(), 6u);
    // Colors are simplex dimensions: the barycenter of the triangle has
    // color 2.
    bool found_center = false;
    for (VertexId v : bary.complex().vertex_ids()) {
        if (bary.position(v) == BaryPoint::barycenter(Simplex{0, 1, 2})) {
            EXPECT_EQ(bary.complex().color(v), 2u);
            found_center = true;
        }
    }
    EXPECT_TRUE(found_center);
    bary.verify_subdivision_exactness();
}

TEST(Subdivision, FindVertexByPositionAndColor) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(1);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    const BaryPoint p({{0, Rational(1, 3)}, {1, Rational(2, 3)}});
    const auto v = chr.find_vertex(p, 0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(chr.position(*v), p);
    EXPECT_FALSE(chr.find_vertex(p, 1).has_value());
}

TEST(Subdivision, FacetsContainingBarycenter) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    const auto facets =
        chr.facets_containing(BaryPoint::barycenter(Simplex{0, 1, 2}));
    // The barycenter lies in the central facet only.
    ASSERT_EQ(facets.size(), 1u);
    EXPECT_EQ(chr.carrier_of(facets[0]), Simplex({0, 1, 2}));
}

// A SubdividedComplex keeps the facet list it was built from; it must be
// exactly the complex's own (sorted, maximal) facet list — for plain,
// partial, iterated and barycentric builds, over a non-pure base too.
TEST(Subdivision, StoredFacetsAreTheComplexFacets) {
    const ChromaticComplex mixed(
        SimplicialComplex::from_facets({Simplex{0, 1, 2}, Simplex{2, 3}}),
        {{0, 0}, {1, 1}, {2, 2}, {3, 0}});
    const auto edge_terminated = [](const Simplex& t) {
        return t.is_face_of(Simplex{0, 1});
    };
    const auto all_terminated = [](const Simplex&) { return true; };
    for (const ChromaticComplex& base :
         {ChromaticComplex::standard_simplex(2),
          ChromaticComplex::standard_simplex(3), mixed}) {
        const SubdividedComplex id = SubdividedComplex::identity(base);
        const SubdividedComplex chr = id.chromatic_subdivision();
        for (const SubdividedComplex& sd :
             {id, chr, chr.chromatic_subdivision(),
              id.chromatic_subdivision_with_termination(edge_terminated),
              chr.chromatic_subdivision_with_termination(edge_terminated),
              id.chromatic_subdivision_with_termination(all_terminated),
              id.barycentric_subdivision()}) {
            EXPECT_EQ(sd.facets(), sd.complex().facets())
                << "depth " << sd.depth() << ", "
                << sd.complex().complex().size() << " simplices";
        }
    }
}

// Every vertex is found again through both flat indexes: by its exact
// position and color, and by its provenance.
void expect_indexes_agree(const SubdividedComplex& sd) {
    for (VertexId v : sd.complex().vertex_ids()) {
        EXPECT_EQ(sd.find_vertex(sd.position(v), sd.complex().color(v)), v);
        if (sd.depth() > 0) {
            const auto& pr = sd.provenance(v);
            EXPECT_EQ(sd.vertex_for(pr.parent_vertex, pr.parent_simplex), v);
        }
    }
}

TEST(Subdivision, VertexTableKeepsTheSmallestIdOfADuplicatedKey) {
    // A proper subdivision never repeats a (position, color), so
    // find_vertex's "smallest id wins" rule is pinned at its table: ids
    // inserted in ascending order, several of them under one key, all
    // under one hash so every probe walks a single chain.
    const std::vector<BaryPoint> keys = {
        BaryPoint::vertex(0), BaryPoint::barycenter(Simplex{0, 1}),
        BaryPoint::vertex(0), BaryPoint::barycenter(Simplex{0, 1}),
        BaryPoint::vertex(1)};
    const std::vector<VertexId> kept = {0, 1, 0, 1, 4};
    VertexTable table;
    for (VertexId id = 0; id < keys.size(); ++id) {
        EXPECT_EQ(table.find_or_insert(
                      7, id, [&](VertexId w) { return keys[w] == keys[id]; }),
                  kept[id]);
    }
    const auto lookup = [&](const BaryPoint& p) {
        return table.find(7, [&](VertexId w) { return keys[w] == p; });
    };
    EXPECT_EQ(lookup(BaryPoint::vertex(0)), 0u);
    EXPECT_EQ(lookup(BaryPoint::barycenter(Simplex{0, 1})), 1u);
    EXPECT_EQ(lookup(BaryPoint::vertex(1)), 4u);
    EXPECT_FALSE(lookup(BaryPoint::vertex(2)).has_value());
}

TEST(Subdivision, LookupsSurviveCopyAndMove) {
    // The indexes hold ids only; a copy or a moved-to complex must read
    // its own position and provenance arrays, also once the source is
    // gone.
    std::optional<SubdividedComplex> source =
        SubdividedComplex::iterated_chromatic(
            ChromaticComplex::standard_simplex(2), 2);
    const SubdividedComplex copy = *source;
    SubdividedComplex assigned;
    assigned = copy;
    SubdividedComplex moved = std::move(*source);
    source.reset();
    for (const SubdividedComplex* sd :
         std::initializer_list<const SubdividedComplex*>{&copy, &assigned,
                                                         &moved}) {
        EXPECT_EQ(sd->complex().vertex_ids().size(),
                  copy.complex().vertex_ids().size());
        expect_indexes_agree(*sd);
    }
    EXPECT_EQ(moved.facet_for_partition(Simplex{0, 1, 2}, {{0}, {1}, {2}}),
              copy.facet_for_partition(Simplex{0, 1, 2}, {{0}, {1}, {2}}));
}

TEST(Subdivision, IdentityWithSparseBaseIds) {
    const ChromaticComplex sparse(
        SimplicialComplex::from_facets({Simplex{2, 5, 9}}),
        {{2, 0}, {5, 1}, {9, 2}});
    const SubdividedComplex id = SubdividedComplex::identity(sparse);
    EXPECT_EQ(id.find_vertex(BaryPoint::vertex(5), 1), 5u);
    EXPECT_FALSE(id.find_vertex(BaryPoint::vertex(5), 0).has_value());
    // Ids in the gaps below 9 are no vertices and are not indexed.
    EXPECT_FALSE(id.find_vertex(BaryPoint::vertex(3), 0).has_value());
    expect_indexes_agree(id);

    const SubdividedComplex chr = id.chromatic_subdivision();
    expect_indexes_agree(chr);
    const VertexId center = chr.vertex_for(5, Simplex{2, 5, 9});
    EXPECT_EQ(chr.position(center).coord(5), Rational(1, 5));
    EXPECT_EQ(chr.complex().color(center), 1u);
    chr.verify_subdivision_exactness();
}

TEST(Subdivision, ProvenanceLookupsAfterBarycentric) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex bary =
        SubdividedComplex::identity(s).barycentric_subdivision();
    expect_indexes_agree(bary);
    // The barycenter of sigma is the vertex (min sigma, sigma).
    for (const Simplex& sigma : s.complex().simplices()) {
        const VertexId b = bary.vertex_for(sigma.vertices().front(), sigma);
        EXPECT_EQ(bary.position(b), BaryPoint::barycenter(sigma));
        EXPECT_EQ(bary.complex().color(b),
                  static_cast<Color>(sigma.dimension()));
    }
    // Blocks that add each prefix's smallest vertex last spell a flag.
    const Simplex flag =
        bary.facet_for_partition(Simplex{0, 1, 2}, {{2}, {1}, {0}});
    EXPECT_EQ(flag, Simplex({bary.vertex_for(2, Simplex{2}),
                             bary.vertex_for(1, Simplex{1, 2}),
                             bary.vertex_for(0, Simplex{0, 1, 2})}));
    EXPECT_TRUE(bary.complex().contains(flag));
}

class ChrSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ChrSweep, FacetCountsAndExactness) {
    const auto [n, k] = GetParam();
    const ChromaticComplex s = ChromaticComplex::standard_simplex(n);
    const SubdividedComplex chr = SubdividedComplex::iterated_chromatic(s, k);
    std::size_t expected = 1;
    for (int i = 0; i < k; ++i) {
        expected *= ordered_bell_number(static_cast<std::size_t>(n) + 1);
    }
    EXPECT_EQ(chr.complex().facets().size(), expected);
    chr.verify_subdivision_exactness();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChrSweep,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(1, 2),
                      std::make_tuple(1, 3), std::make_tuple(2, 1),
                      std::make_tuple(2, 2), std::make_tuple(3, 1)));

}  // namespace
}  // namespace gact::topo
