// The blocking-nogood lifetime guarantee: a pointer returned by
// NogoodStore::blocking_nogood(), or a reference to all().back(), must
// survive every later record() call. (This file once also tested the
// cross-thread nogood exchange, which the solver no longer has; the
// collection-time twin of this test is in nogood_gc_test.)
#include <gtest/gtest.h>

#include <unordered_map>

#include "core/nogood_store.h"

namespace gact {
namespace {

using core::NogoodLiteral;
using core::NogoodStore;

// --- blocking_nogood lifetime -------------------------------------------

TEST(NogoodStoreLifetime, BlockingNogoodSurvivesThousandsOfRecords) {
    // Regression for the documented lifetime hazard: blocking_nogood()
    // used to return a pointer into a std::vector of nogoods, which
    // record() could reallocate — any caller holding the pointer across
    // a record read freed memory. The store now keeps nogoods in a
    // deque, so the reference is stable for the store's lifetime. Under
    // ASan the old layout makes this test a hard heap-use-after-free;
    // under plain builds it still fails on the content checks with high
    // probability.
    NogoodStore store(1 << 14);
    ASSERT_TRUE(store.record({{1, 10}, {2, 20}}));

    std::unordered_map<topo::VertexId, topo::VertexId> assignment{{2, 20}};
    const auto value_of = [&assignment](topo::VertexId u,
                                        topo::VertexId& out) {
        const auto it = assignment.find(u);
        if (it == assignment.end()) return false;
        out = it->second;
        return true;
    };
    const std::vector<NogoodLiteral>* blocking =
        store.blocking_nogood(1, 10, value_of);
    ASSERT_NE(blocking, nullptr);

    // Force what used to be many reallocations of the nogood vector.
    for (topo::VertexId i = 0; i < 5000; ++i) {
        store.record({{i + 100, i}, {i + 10000, i}});
    }

    // The original reference must still be intact and readable.
    ASSERT_EQ(blocking->size(), 2u);
    EXPECT_EQ((*blocking)[0].var, 1u);
    EXPECT_EQ((*blocking)[0].value, 10u);
    EXPECT_EQ((*blocking)[1].var, 2u);
    EXPECT_EQ((*blocking)[1].value, 20u);

    // And all().back() references survive further records too.
    ASSERT_TRUE(store.record({{7, 70}, {8, 80}}));
    const std::vector<NogoodLiteral>& last = store.all().back();
    for (topo::VertexId i = 0; i < 1000; ++i) {
        store.record({{i + 50000, i}});
    }
    ASSERT_EQ(last.size(), 2u);
    EXPECT_EQ(last[0].var, 7u);
}

}  // namespace
}  // namespace gact
