#include "topology/simplex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

namespace gact::topo {
namespace {

TEST(Simplex, EmptyHasDimensionMinusOne) {
    Simplex s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.dimension(), -1);
}

TEST(Simplex, SortsAndDeduplicates) {
    Simplex s{3, 1, 3, 2};
    const std::vector<VertexId> expected = {1, 2, 3};
    EXPECT_TRUE(std::ranges::equal(s.vertices(), expected));
    EXPECT_EQ(s.dimension(), 2);
}

TEST(Simplex, Contains) {
    Simplex s{0, 4, 7};
    EXPECT_TRUE(s.contains(4));
    EXPECT_FALSE(s.contains(5));
}

TEST(Simplex, FaceRelation) {
    Simplex big{0, 1, 2};
    EXPECT_TRUE(Simplex({0, 2}).is_face_of(big));
    EXPECT_TRUE(big.is_face_of(big));
    EXPECT_TRUE(Simplex().is_face_of(big));
    EXPECT_FALSE(Simplex({0, 3}).is_face_of(big));
}

TEST(Simplex, SetOperations) {
    Simplex a{0, 1, 2};
    Simplex b{1, 2, 3};
    EXPECT_EQ(a.union_with(b), Simplex({0, 1, 2, 3}));
    EXPECT_EQ(a.intersection_with(b), Simplex({1, 2}));
    EXPECT_EQ(a.difference(b), Simplex({0}));
}

TEST(Simplex, WithWithout) {
    Simplex s{1, 3};
    EXPECT_EQ(s.with(2), Simplex({1, 2, 3}));
    EXPECT_EQ(s.with(3), s);
    EXPECT_EQ(s.without(3), Simplex({1}));
    EXPECT_EQ(s.without(9), s);
}

TEST(Simplex, FacesCount) {
    Simplex s{0, 1, 2};
    EXPECT_EQ(s.faces().size(), 7u);  // 2^3 - 1
    // Faces include the simplex itself and all vertices.
    bool found_self = false;
    for (const Simplex& f : s.faces()) {
        EXPECT_TRUE(f.is_face_of(s));
        if (f == s) found_self = true;
    }
    EXPECT_TRUE(found_self);
}

TEST(Simplex, FacesOfDimension) {
    Simplex s{0, 1, 2, 3};
    EXPECT_EQ(s.faces_of_dimension(0).size(), 4u);
    EXPECT_EQ(s.faces_of_dimension(1).size(), 6u);
    EXPECT_EQ(s.faces_of_dimension(2).size(), 4u);
    EXPECT_EQ(s.faces_of_dimension(3).size(), 1u);
    EXPECT_TRUE(s.faces_of_dimension(4).empty());
    EXPECT_TRUE(s.faces_of_dimension(-1).empty());
}

TEST(Simplex, BoundaryFacesOrderedByDroppedIndex) {
    Simplex s{5, 7, 9};
    const auto b = s.boundary_faces();
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(b[0], Simplex({7, 9}));
    EXPECT_EQ(b[1], Simplex({5, 9}));
    EXPECT_EQ(b[2], Simplex({5, 7}));
}

TEST(Simplex, Ordering) {
    EXPECT_LT(Simplex({0}), Simplex({0, 1}));
    EXPECT_LT(Simplex({0, 1}), Simplex({0, 2}));
}

TEST(Simplex, ToString) {
    EXPECT_EQ(Simplex({2, 0}).to_string(), "[0 2]");
    EXPECT_EQ(Simplex().to_string(), "[]");
}

TEST(Simplex, HashingDistinguishesAndAgrees) {
    std::hash<Simplex> h;
    EXPECT_EQ(h(Simplex({1, 2})), h(Simplex({2, 1})));
    EXPECT_NE(h(Simplex({1, 2})), h(Simplex({1, 3})));
}

// Value semantics across the inline/heap storage boundary: simplices of
// up to Simplex::kInline vertices live inline, larger ones on the heap.
class SimplexStorageSweep : public ::testing::TestWithParam<std::size_t> {
protected:
    /// Descending ids, so construction has to sort them.
    static std::vector<VertexId> ids(std::size_t n) {
        std::vector<VertexId> v;
        for (std::size_t i = 0; i < n; ++i) {
            v.push_back(static_cast<VertexId>(10 * (n - i)));
        }
        return v;
    }
    static std::vector<VertexId> sorted(std::vector<VertexId> v) {
        std::sort(v.begin(), v.end());
        return v;
    }
};

TEST_P(SimplexStorageSweep, BuildsSortedFromVector) {
    const std::size_t n = GetParam();
    const Simplex s(ids(n));
    EXPECT_EQ(s.size(), n);
    EXPECT_EQ(s.dimension(), static_cast<int>(n) - 1);
    EXPECT_TRUE(std::ranges::equal(s.vertices(), sorted(ids(n))));
}

TEST_P(SimplexStorageSweep, CopyMoveAndSelfAssignment) {
    const std::size_t n = GetParam();
    const Simplex original(ids(n));

    Simplex copy(original);
    EXPECT_EQ(copy, original);
    Simplex assigned{99};
    assigned = original;
    EXPECT_EQ(assigned, original);

    Simplex moved(std::move(copy));
    EXPECT_EQ(moved, original);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    Simplex move_assigned{1, 2, 3, 4, 5, 6, 7};
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned, original);
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)

    Simplex& self = move_assigned;
    move_assigned = self;
    EXPECT_EQ(move_assigned, original);
    move_assigned = std::move(self);
    EXPECT_EQ(move_assigned, original);

    // The copies are independent of the source's storage.
    Simplex source(ids(n));
    const Simplex kept(source);
    source = Simplex{7};
    EXPECT_EQ(kept, original);
}

TEST_P(SimplexStorageSweep, EqualityOrderAndHashAgreeWithVectors) {
    const std::size_t n = GetParam();
    const std::vector<VertexId> v = sorted(ids(n));
    const Simplex a(v);
    const Simplex b(ids(n));
    EXPECT_EQ(a, b);
    EXPECT_EQ(std::hash<Simplex>{}(a), std::hash<Simplex>{}(b));
    EXPECT_EQ(std::hash<Simplex>{}(a), gact::hash_range(v));
    EXPECT_FALSE(a < b);
    EXPECT_FALSE(b < a);

    // The order is lexicographic on the sorted vertex lists, the same as
    // std::vector's, including across sizes.
    std::vector<VertexId> longer = v;
    longer.push_back(1000);
    std::vector<VertexId> bumped = v;
    if (!bumped.empty()) bumped.back() += 1;
    for (const std::vector<VertexId>& w : {longer, bumped}) {
        EXPECT_EQ(a < Simplex(w), v < w);
        EXPECT_EQ(Simplex(w) < a, w < v);
        EXPECT_EQ(a == Simplex(w), v == w);
    }
}

TEST_P(SimplexStorageSweep, SetOperationsCrossTheBoundary) {
    const std::size_t n = GetParam();
    const Simplex s(ids(n));
    const Simplex extra{1, 2, 3};
    const Simplex u = s.union_with(extra);
    EXPECT_EQ(u.size(), n + 3);
    EXPECT_EQ(u.intersection_with(s), s);
    EXPECT_EQ(u.difference(extra), s);
    EXPECT_EQ(s.with(5).without(5), s);
    if (n > 0) {
        const VertexId first = s.vertices().front();
        EXPECT_EQ(s.without(first).size(), n - 1);
        EXPECT_EQ(s.without(first).with(first), s);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimplexStorageSweep,
                         ::testing::Values(0, 1, 4, 5, 6));

TEST(Simplex, FacesOfFiveVertexSimplex) {
    const Simplex s{4, 3, 2, 1, 0};
    const std::vector<Simplex> faces = s.faces();
    EXPECT_EQ(faces.size(), 31u);  // 2^5 - 1
    const std::set<Simplex> distinct(faces.begin(), faces.end());
    EXPECT_EQ(distinct.size(), 31u);
    for (const Simplex& f : faces) EXPECT_TRUE(f.is_face_of(s));
    EXPECT_EQ(distinct.count(s), 1u);

    const std::vector<Simplex> b = s.boundary_faces();
    ASSERT_EQ(b.size(), 5u);
    for (std::size_t i = 0; i < b.size(); ++i) {
        EXPECT_EQ(b[i].size(), 4u);
        EXPECT_EQ(b[i], s.without(static_cast<VertexId>(i)));
        EXPECT_EQ(distinct.count(b[i]), 1u);
    }
    // The combination walk lists the 3-faces in the reverse of the
    // dropped-index order.
    EXPECT_EQ(s.faces_of_dimension(3),
              std::vector<Simplex>(b.rbegin(), b.rend()));
}

}  // namespace
}  // namespace gact::topo
