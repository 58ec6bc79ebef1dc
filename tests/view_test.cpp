#include "iis/view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace gact::iis {
namespace {

TEST(ViewArena, InterningDeduplicates) {
    ViewArena arena;
    const ViewId a = arena.make_initial(0);
    const ViewId b = arena.make_initial(0);
    EXPECT_EQ(a, b);
    const ViewId c = arena.make_initial(1);
    EXPECT_NE(a, c);
    EXPECT_EQ(arena.size(), 2u);
}

TEST(ViewArena, InputsDistinguishInitialViews) {
    ViewArena arena;
    const ViewId a = arena.make_initial(0, topo::VertexId{7});
    const ViewId b = arena.make_initial(0, topo::VertexId{8});
    const ViewId c = arena.make_initial(0);
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
}

TEST(ViewArena, MakeViewValidatesOwnership) {
    ViewArena arena;
    const ViewId v1 = arena.make_initial(1);
    // Process 0 cannot form a view that does not include its own.
    EXPECT_THROW(arena.make_view(0, {v1}), precondition_error);
    EXPECT_THROW(arena.make_view(0, {}), precondition_error);
}

TEST(ViewArena, MakeViewValidatesDepths) {
    ViewArena arena;
    const ViewId v0 = arena.make_initial(0);
    const ViewId v1 = arena.make_initial(1);
    const ViewId deep = arena.make_view(0, {v0, v1});
    EXPECT_THROW(arena.make_view(0, {v0, deep}), precondition_error);
}

TEST(ViewArena, DepthTracking) {
    ViewArena arena;
    const ViewId v0 = arena.make_initial(0);
    const ViewId v1 = arena.make_view(0, {v0});
    const ViewId v2 = arena.make_view(0, {v1});
    EXPECT_EQ(arena.node(v0).depth, 0);
    EXPECT_EQ(arena.node(v1).depth, 1);
    EXPECT_EQ(arena.node(v2).depth, 2);
}

TEST(ViewArena, SameBlockViewsShareStructure) {
    // Two processes in the same concurrency class see the same set of
    // previous views; their nodes differ only by owner.
    ViewArena arena;
    const ViewId a0 = arena.make_initial(0);
    const ViewId b0 = arena.make_initial(1);
    const ViewId a1 = arena.make_view(0, {a0, b0});
    const ViewId b1 = arena.make_view(1, {a0, b0});
    EXPECT_NE(a1, b1);
    EXPECT_TRUE(std::ranges::equal(arena.node(a1).seen, arena.node(b1).seen));
}

TEST(ViewArena, ProcessesInIsTransitive) {
    ViewArena arena;
    const ViewId a0 = arena.make_initial(0);
    const ViewId b0 = arena.make_initial(1);
    const ViewId c0 = arena.make_initial(2);
    // p1 sees p2 at round 1; p0 sees p1 (but not p2 directly) at round 2.
    const ViewId b1 = arena.make_view(1, {b0, c0});
    const ViewId a1 = arena.make_view(0, {a0});
    const ViewId a2 = arena.make_view(0, {a1, b1});
    EXPECT_EQ(arena.processes_in(a2), ProcessSet::of({0, 1, 2}));
    EXPECT_EQ(arena.processes_in(a1), ProcessSet::of({0}));
}

TEST(ViewArena, ToStringRoundTripsStructure) {
    ViewArena arena;
    const ViewId a0 = arena.make_initial(0, topo::VertexId{3});
    EXPECT_EQ(arena.to_string(a0), "p0@0<in:3>");
    const ViewId a1 = arena.make_view(0, {a0});
    EXPECT_EQ(arena.to_string(a1), "p0@1{p0@0<in:3>}");
}

TEST(ViewArena, MakeViewTakesSeenViewsInAnyOrder) {
    ViewArena arena;
    const ViewId a0 = arena.make_initial(0);
    const ViewId b0 = arena.make_initial(1);
    const ViewId sorted = arena.make_view(0, {a0, b0});
    const std::vector<ViewId> shuffled = {b0, a0, b0};
    EXPECT_EQ(arena.make_view(0, shuffled), sorted);
    EXPECT_EQ(arena.size(), 3u);
}

TEST(ViewArena, ClearHandsOutAFreshArenasIds) {
    // Build the same views in a fresh arena and in one that held other
    // views and was cleared: the ids must match one for one.
    const auto build = [](ViewArena& arena) {
        const ViewId a0 = arena.make_initial(0, topo::VertexId{4});
        const ViewId b0 = arena.make_initial(1, topo::VertexId{5});
        const ViewId a1 = arena.make_view(0, {a0, b0});
        const ViewId b1 = arena.make_view(1, {b0});
        return std::vector<ViewId>{a0, b0, a1, b1, arena.make_view(0, {a1, b1})};
    };
    ViewArena fresh;
    const std::vector<ViewId> want = build(fresh);

    ViewArena reused;
    ViewId v = reused.make_initial(2);
    for (int k = 0; k < 40; ++k) v = reused.make_view(2, {v});  // grow it
    reused.clear();
    EXPECT_EQ(reused.size(), 0u);
    EXPECT_THROW(reused.node(0), precondition_error);
    EXPECT_EQ(build(reused), want);
    EXPECT_EQ(reused.size(), fresh.size());
    for (ViewId id : want) {
        EXPECT_EQ(reused.to_string(id), fresh.to_string(id));
        EXPECT_EQ(reused.processes_in(id), fresh.processes_in(id));
    }
}

TEST(ViewArena, SeenReadsCorrectlyAfterThePoolGrows) {
    // `seen` spans point into one shared pool; interning many more views
    // moves it, and a node read afterwards must still list its children.
    ViewArena arena;
    const ViewId a0 = arena.make_initial(0);
    const ViewId b0 = arena.make_initial(1);
    const ViewId c0 = arena.make_initial(2);
    const ViewId a1 = arena.make_view(0, {c0, a0, b0});
    ViewId chain = arena.make_view(1, {b0});
    for (int k = 0; k < 500; ++k) chain = arena.make_view(1, {chain});
    const std::vector<ViewId> want = {a0, b0, c0};
    EXPECT_TRUE(std::ranges::equal(arena.node(a1).seen, want));
    EXPECT_EQ(arena.node(chain).depth, 501);
    ASSERT_EQ(arena.node(chain).seen.size(), 1u);
    EXPECT_EQ(arena.node(arena.node(chain).seen[0]).depth, 500);
}

TEST(ViewArena, FindEqualMatchesStructureAcrossArenas) {
    // The same views built in different orders get different ids in two
    // arenas; find_equal maps each to its counterpart.
    ViewArena a;
    const ViewId a_p0 = a.make_initial(0, topo::VertexId{1});
    const ViewId a_p1 = a.make_initial(1, topo::VertexId{2});
    const ViewId a_v = a.make_view(1, {a_p0, a_p1});

    ViewArena b;
    (void)b.make_initial(3);  // shift b's id space
    const ViewId b_p1 = b.make_initial(1, topo::VertexId{2});
    const ViewId b_p0 = b.make_initial(0, topo::VertexId{1});
    const ViewId b_v = b.make_view(1, {b_p1, b_p0});

    EXPECT_NE(a_v, b_v);
    EXPECT_EQ(b.find_equal(a, a_v), b_v);
    EXPECT_EQ(a.find_equal(b, b_v), a_v);
    EXPECT_EQ(b.find_equal(a, a_p0), b_p0);
    EXPECT_EQ(a.find_equal(a, a_v), a_v);
}

TEST(ViewArena, FindEqualReturnsNulloptForAbsentViews) {
    ViewArena a;
    const ViewId p0 = a.make_initial(0, topo::VertexId{1});
    const ViewId p1 = a.make_initial(1, topo::VertexId{2});
    const ViewId v = a.make_view(0, {p0, p1});
    const ViewId solo = a.make_view(0, {p0});

    ViewArena empty;
    EXPECT_EQ(empty.find_equal(a, v), std::nullopt);

    ViewArena b;
    const ViewId b_p0 = b.make_initial(0, topo::VertexId{1});
    (void)b.make_initial(1, topo::VertexId{3});  // another input
    (void)b.make_view(0, {b_p0});
    EXPECT_EQ(b.find_equal(a, p0), b_p0);
    EXPECT_EQ(b.find_equal(a, p1), std::nullopt);   // input differs
    EXPECT_EQ(b.find_equal(a, v), std::nullopt);    // child missing
    EXPECT_NE(b.find_equal(a, solo), std::nullopt);

    // After clear() nothing is found, and the views come back on demand.
    b.clear();
    EXPECT_EQ(b.find_equal(a, p0), std::nullopt);
    EXPECT_EQ(b.make_initial(0, topo::VertexId{1}), ViewId{0});
    EXPECT_EQ(b.find_equal(a, p0), ViewId{0});
}

TEST(ViewArena, UnknownIdThrows) {
    ViewArena arena;
    EXPECT_THROW(arena.node(42), precondition_error);
}

}  // namespace
}  // namespace gact::iis
