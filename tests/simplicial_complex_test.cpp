#include "topology/simplicial_complex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <thread>

#include "exec/scheduler.h"

namespace gact::topo {
namespace {

SimplicialComplex triangle() {
    return SimplicialComplex::from_facets({Simplex{0, 1, 2}});
}

SimplicialComplex hollow_triangle() {
    return SimplicialComplex::from_facets(
        {Simplex{0, 1}, Simplex{1, 2}, Simplex{0, 2}});
}

TEST(SimplicialComplex, DownwardClosure) {
    const SimplicialComplex c = triangle();
    EXPECT_EQ(c.size(), 7u);  // 3 vertices + 3 edges + 1 triangle
    EXPECT_TRUE(c.contains(Simplex{0, 1}));
    EXPECT_TRUE(c.contains(Simplex{2}));
    EXPECT_FALSE(c.contains(Simplex{0, 3}));
}

TEST(SimplicialComplex, AddSimplexRejectsEmpty) {
    SimplicialComplex c;
    EXPECT_THROW(c.add_simplex(Simplex()), precondition_error);
}

TEST(SimplicialComplex, FacetsOfTriangle) {
    const auto f = triangle().facets();
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0], Simplex({0, 1, 2}));
}

TEST(SimplicialComplex, FacetsMixedDimensions) {
    SimplicialComplex c = SimplicialComplex::from_facets(
        {Simplex{0, 1, 2}, Simplex{2, 3}, Simplex{4}});
    const auto f = c.facets();
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[0], Simplex({0, 1, 2}));
    EXPECT_EQ(f[1], Simplex({2, 3}));
    EXPECT_EQ(f[2], Simplex({4}));
}

TEST(SimplicialComplex, DimensionAndPurity) {
    EXPECT_EQ(triangle().dimension(), 2);
    EXPECT_TRUE(triangle().is_pure(2));
    EXPECT_FALSE(triangle().is_pure(1));

    SimplicialComplex mixed = SimplicialComplex::from_facets(
        {Simplex{0, 1, 2}, Simplex{3, 4}});
    EXPECT_FALSE(mixed.is_pure(2));
    EXPECT_FALSE(mixed.is_pure());
}

TEST(SimplicialComplex, PureOfOwnDimension) {
    SimplicialComplex mixed = SimplicialComplex::from_facets(
        {Simplex{0, 1, 2}, Simplex{3, 4}});
    // Dimension 2, but edge {3,4} is maximal: not pure.
    EXPECT_FALSE(mixed.is_pure(mixed.dimension()));
}

TEST(SimplicialComplex, Skeleton) {
    const SimplicialComplex sk = triangle().skeleton(1);
    EXPECT_EQ(sk.size(), 6u);
    EXPECT_FALSE(sk.contains(Simplex{0, 1, 2}));
    EXPECT_TRUE(sk.contains(Simplex{0, 1}));
    EXPECT_TRUE(sk == hollow_triangle());
}

TEST(SimplicialComplex, OpenStar) {
    const SimplicialComplex c = triangle();
    const auto star = c.open_star(Simplex{0});
    // Simplices containing vertex 0: {0}, {0,1}, {0,2}, {0,1,2}.
    EXPECT_EQ(star.size(), 4u);
}

TEST(SimplicialComplex, ClosedStarIsWholeTriangle) {
    const SimplicialComplex c = triangle();
    EXPECT_TRUE(c.closed_star(Simplex{0}) == c);
}

TEST(SimplicialComplex, LinkOfVertexInTriangle) {
    const SimplicialComplex link = triangle().link(Simplex{0});
    // Link of a vertex of a solid triangle is the opposite edge.
    EXPECT_TRUE(link.contains(Simplex{1, 2}));
    EXPECT_EQ(link.size(), 3u);
}

TEST(SimplicialComplex, LinkOfEdge) {
    const SimplicialComplex link = triangle().link(Simplex{0, 1});
    EXPECT_EQ(link.size(), 1u);
    EXPECT_TRUE(link.contains(Simplex{2}));
}

TEST(SimplicialComplex, LinkInHollowTriangle) {
    const SimplicialComplex link = hollow_triangle().link(Simplex{0});
    // Two isolated vertices.
    EXPECT_EQ(link.size(), 2u);
    EXPECT_EQ(link.num_connected_components(), 2u);
}

TEST(SimplicialComplex, EulerCharacteristic) {
    EXPECT_EQ(triangle().euler_characteristic(), 1);         // disk
    EXPECT_EQ(hollow_triangle().euler_characteristic(), 0);  // circle
}

TEST(SimplicialComplex, ConnectedComponents) {
    SimplicialComplex c = SimplicialComplex::from_facets(
        {Simplex{0, 1}, Simplex{2, 3}, Simplex{4}});
    EXPECT_EQ(c.num_connected_components(), 3u);
    EXPECT_FALSE(c.is_connected());
    EXPECT_TRUE(triangle().is_connected());
}

TEST(SimplicialComplex, SubcomplexRelation) {
    EXPECT_TRUE(hollow_triangle().is_subcomplex_of(triangle()));
    EXPECT_FALSE(triangle().is_subcomplex_of(hollow_triangle()));
}

TEST(SimplicialComplex, VertexIds) {
    SimplicialComplex c = SimplicialComplex::from_facets({Simplex{7, 3}});
    const std::vector<VertexId> expected = {3, 7};
    EXPECT_EQ(c.vertex_ids(), expected);
}

TEST(SimplicialComplex, EmptyComplex) {
    SimplicialComplex c;
    EXPECT_TRUE(c.is_empty());
    EXPECT_EQ(c.dimension(), -1);
    EXPECT_EQ(c.euler_characteristic(), 0);
    EXPECT_EQ(c.num_connected_components(), 0u);
    EXPECT_FALSE(c.is_connected());
}

// The flat table: the same complex built by from_facets and by
// add_simplex in a shuffled order must hold the same simplices, whatever
// slots they landed in. Facets of 4 and 5 vertices straddle the inline
// limit of Simplex.
TEST(SimplicialComplex, FromFacetsMatchesShuffledAddSimplex) {
    std::vector<Simplex> facets;
    for (VertexId i = 0; i < 40; ++i) {
        facets.push_back(Simplex{i, i + 1, i + 2, i + 3});
        facets.push_back(Simplex{i, i + 2, i + 5, i + 7, i + 11});
    }
    const SimplicialComplex built = SimplicialComplex::from_facets(facets);

    std::vector<Simplex> shuffled = facets;
    std::mt19937 rng(2024);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    SimplicialComplex added;
    for (const Simplex& f : shuffled) added.add_simplex(f);

    EXPECT_EQ(built, added);
    EXPECT_EQ(built.size(), added.size());
    EXPECT_EQ(built.dimension(), 4);
    for (int d = 0; d <= 4; ++d) {
        EXPECT_EQ(built.simplices_of_dimension(d),
                  added.simplices_of_dimension(d))
            << "dimension " << d;
    }
    std::size_t faces_seen = 0;
    for (const Simplex& f : facets) {
        for (const Simplex& face : f.faces()) {
            ++faces_seen;
            EXPECT_TRUE(built.contains(face)) << face.to_string();
            EXPECT_TRUE(added.contains(face)) << face.to_string();
        }
    }
    EXPECT_GT(faces_seen, built.size());  // faces are shared
    EXPECT_FALSE(built.contains(Simplex{0, 1, 2, 3, 4}));
    EXPECT_FALSE(built.contains(Simplex{0, 100}));
    EXPECT_FALSE(added.contains(Simplex{1000}));
    EXPECT_FALSE(built.contains(Simplex()));

    // Iteration visits every simplex exactly once.
    std::vector<Simplex> listed(built.simplices().begin(),
                                built.simplices().end());
    std::sort(listed.begin(), listed.end());
    EXPECT_EQ(std::adjacent_find(listed.begin(), listed.end()), listed.end());
    EXPECT_EQ(listed.size(), built.size());

    SimplicialComplex missing_one = SimplicialComplex::from_facets(
        std::vector<Simplex>(facets.begin(), facets.end() - 1));
    EXPECT_FALSE(missing_one == built);
}

TEST(SimplexSet, GrowthKeepsEveryElement) {
    SimplexSet set;
    std::vector<Simplex> inserted;
    // Several rehashes, with inline (1-4 vertex) and heap (5-6 vertex)
    // entries.
    for (VertexId i = 0; i < 5000; ++i) {
        const std::size_t n = 1 + i % 6;
        std::vector<VertexId> v;
        for (std::size_t k = 0; k < n; ++k) {
            v.push_back(i * 7 + static_cast<VertexId>(k));
        }
        inserted.emplace_back(v);
        EXPECT_TRUE(set.insert(inserted.back()));
        EXPECT_FALSE(set.insert(inserted.back()));
    }
    EXPECT_EQ(set.size(), inserted.size());
    EXPECT_GE(set.slot_count(), set.size());
    for (const Simplex& s : inserted) EXPECT_TRUE(set.contains(s));
    EXPECT_FALSE(set.contains(Simplex{1, 2}));
    std::size_t visited = 0;
    for (const Simplex& s : set) {
        EXPECT_FALSE(s.empty());
        ++visited;
    }
    EXPECT_EQ(visited, inserted.size());
    EXPECT_THROW(set.insert(Simplex()), precondition_error);
}

// Every element of a built complex is reachable from its home slot:
// find() lands on the slot that holds it.
void expect_every_element_found(const SimplicialComplex& c) {
    const SimplexSet& set = c.simplices();
    std::size_t occupied = 0;
    for (std::size_t i = 0; i < set.slot_count(); ++i) {
        if (set.slot(i).empty()) continue;
        ++occupied;
        EXPECT_EQ(set.find(set.slot(i)), i) << set.slot(i).to_string();
    }
    EXPECT_EQ(occupied, c.size());
}

// The ranges a sharded closure build splits a table of `slot_count`
// slots into at `threads` threads.
std::size_t expected_ranges(unsigned threads, std::size_t slot_count) {
    return std::max<std::size_t>(
        1, std::min({std::size_t{threads},
                     std::size_t{exec::Scheduler::shared().worker_count()},
                     slot_count / 4096}));
}

// The sharded closure build equals the one-range build at every thread
// count, on a complex of 4- and 5-vertex facets (inline and heap
// simplices) whose table is large enough for several ranges.
TEST(SimplicialComplex, ShardedFromFacetsMatchesTheOneRangeBuild) {
    std::vector<Simplex> facets;
    std::mt19937 rng(19);
    std::uniform_int_distribution<VertexId> vertex(0, 2999);
    for (int i = 0; i < 6000; ++i) {
        std::vector<VertexId> v;
        const std::size_t n = i % 7 == 0 ? 5 : 4;
        while (v.size() < n) {
            const VertexId x = vertex(rng);
            if (std::find(v.begin(), v.end(), x) == v.end()) v.push_back(x);
        }
        facets.emplace_back(v);
    }
    ClosureStats one_stats;
    const SimplicialComplex one =
        SimplicialComplex::from_facets(facets, 1, &one_stats);
    EXPECT_EQ(one_stats.ranges, 1u);
    SimplicialComplex added;
    for (const Simplex& f : facets) added.add_simplex(f);
    EXPECT_EQ(one, added);
    expect_every_element_found(one);

    for (const unsigned threads : {2u, 3u, 4u, 8u}) {
        ClosureStats stats;
        const SimplicialComplex sharded =
            SimplicialComplex::from_facets(facets, threads, &stats);
        EXPECT_EQ(stats.ranges,
                  expected_ranges(threads, sharded.simplices().slot_count()))
            << threads;
        EXPECT_EQ(sharded, one) << threads;
        EXPECT_EQ(sharded.size(), one.size()) << threads;
        EXPECT_EQ(sharded.facets(), one.facets()) << threads;
        expect_every_element_found(sharded);
        for (const Simplex& f : facets) {
            for (const Simplex& face : f.faces()) {
                ASSERT_TRUE(sharded.contains(face)) << face.to_string();
            }
        }
    }
}

// A table loaded close to 3/4 has long clusters, so probes run past the
// ends of the ranges (and of the table): those faces are deferred and
// inserted after the join, and every element must still be found from
// its home slot.
TEST(SimplicialComplex, ShardedFromFacetsSpillsAcrossRangeBoundaries) {
    // 36,293 isolated vertices and 3,631 disjoint edges at pseudo-random
    // ids (a SplitMix64 stream, the same on every platform): 47,186
    // simplices against an estimate of 49,000, so a 65,536-slot table at
    // load 0.72 whose clusters cross every range end at 1 to 4 ranges.
    const auto splitmix = [](std::uint64_t z) {
        z += 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<VertexId>(z ^ (z >> 31));
    };
    std::uint64_t next = std::uint64_t{9} << 32;
    std::vector<Simplex> facets;
    for (int i = 0; i < 36293; ++i) facets.push_back(Simplex{splitmix(next++)});
    for (int i = 0; i < 3631; ++i) {
        const VertexId a = splitmix(next++);
        facets.push_back(Simplex{a, splitmix(next++)});
    }
    SimplicialComplex added;
    for (const Simplex& f : facets) added.add_simplex(f);
    ASSERT_EQ(added.size(), 47186u);

    for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
        ClosureStats stats;
        const SimplicialComplex c =
            SimplicialComplex::from_facets(facets, threads, &stats);
        ASSERT_EQ(c.simplices().slot_count(), 65536u);
        EXPECT_EQ(stats.ranges, expected_ranges(threads, 65536)) << threads;
        EXPECT_EQ(stats.rebuilds, 0u) << threads;
        if (threads <= 4) EXPECT_GT(stats.spills, 0u) << threads;
        EXPECT_EQ(c, added) << threads;
        expect_every_element_found(c);
    }
}

// Disjoint facets have 2^n - 1 faces each, far above the one-per-vertex
// estimate: a range passing 3/4 load doubles the table and rebuilds, so
// the build terminates with every face in place.
TEST(SimplicialComplex, FromFacetsGrowsPastADisjointFacetsOverflow) {
    std::vector<Simplex> facets;
    for (VertexId i = 0; i < 4000; ++i) {
        facets.push_back(Simplex{4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3});
    }
    SimplicialComplex added;
    for (const Simplex& f : facets) added.add_simplex(f);
    for (const unsigned threads : {1u, 4u}) {
        ClosureStats stats;
        const SimplicialComplex c =
            SimplicialComplex::from_facets(facets, threads, &stats);
        EXPECT_GT(stats.rebuilds, 0u) << threads;
        EXPECT_EQ(c.size(), 15 * facets.size()) << threads;
        EXPECT_EQ(c, added) << threads;
        EXPECT_LE(4 * c.size(), 3 * c.simplices().slot_count()) << threads;
        expect_every_element_found(c);
    }
    // One facet alone overflows its estimate as well.
    const SimplicialComplex tetrahedron =
        SimplicialComplex::from_facets({Simplex{0, 1, 2, 3}}, 4);
    EXPECT_EQ(tetrahedron.size(), 15u);
    EXPECT_THROW(SimplicialComplex::from_facets({Simplex{0, 1}, Simplex()}, 4),
                 precondition_error);
    EXPECT_TRUE(SimplicialComplex::from_facets({}, 4).is_empty());
}

// Const access is a pure read of the flat table: several threads may
// probe and walk one complex at once (the sharded subdivision passes do).
TEST(SimplicialComplex, ConcurrentReadsAgree) {
    std::vector<Simplex> facets;
    for (VertexId i = 0; i < 200; ++i) {
        facets.push_back(Simplex{i, i + 1, i + 3, i + 4});
    }
    const SimplicialComplex c = SimplicialComplex::from_facets(facets);
    const std::vector<Simplex> expected = c.facets();
    std::vector<int> ok(4, 0);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < ok.size(); ++t) {
        workers.emplace_back([&, t] {
            bool all = c.facets() == expected;
            for (const Simplex& f : facets) {
                for (const Simplex& face : f.faces()) {
                    all = all && c.contains(face);
                }
            }
            ok[t] = all ? 1 : 0;
        });
    }
    for (std::thread& w : workers) w.join();
    for (int v : ok) EXPECT_EQ(v, 1);
}

// Property sweep: boundary-of-boundary vanishes combinatorially — every
// (d-2)-face of a simplex appears in exactly two boundary faces.
class SimplexBoundarySweep : public ::testing::TestWithParam<int> {};

TEST_P(SimplexBoundarySweep, FacesAppearTwiceInBoundary) {
    const int n = GetParam();
    std::vector<VertexId> verts;
    for (int i = 0; i <= n; ++i) verts.push_back(static_cast<VertexId>(i));
    const Simplex s(verts);
    std::map<Simplex, int> count;
    for (const Simplex& b : s.boundary_faces()) {
        for (const Simplex& bb : b.boundary_faces()) ++count[bb];
    }
    for (const auto& [face, c] : count) EXPECT_EQ(c, 2) << face.to_string();
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexBoundarySweep,
                         ::testing::Values(2, 3, 4, 5));

}  // namespace
}  // namespace gact::topo
