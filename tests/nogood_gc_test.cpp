// The nogood store's eviction contracts. A full store must evict its
// least useful nogoods instead of rejecting new ones (a store that
// refused records once full silently froze all learning for the rest
// of the search), and a reference handed out by blocking_nogood() /
// all().back() must stay readable across the records that trigger a
// collection (nogood_exchange_test covers plain records), because GC
// only *retires* a nogood (drops it from the watch and dedup indices);
// the literal buffers are freed solely by an explicit reclaim() at a
// caller-chosen safe point. Under ASan an eager free would make these
// tests a hard heap-use-after-free; under plain builds they still fail
// on the content checks.
#include <gtest/gtest.h>

#include "core/nogood_store.h"

namespace gact {
namespace {

using core::NogoodLiteral;
using core::NogoodStore;

// --- eviction -------------------------------------------------------------

/// A distinct two-literal nogood per i (never a duplicate).
std::vector<NogoodLiteral> distinct_nogood(topo::VertexId i) {
    return {{i + 100, i}, {i + 10000, i + 1}};
}

TEST(NogoodGc, EvictsInsteadOfRejectingAtCapacity) {
    NogoodStore store(8);
    for (topo::VertexId i = 0; i < 100; ++i) {
        // Every record is admitted: a full store collects, never rejects.
        ASSERT_TRUE(store.record(distinct_nogood(i))) << "record " << i;
        EXPECT_LE(store.live(), 8u);
    }
    EXPECT_EQ(store.size(), 100u);  // ids stay stable: nothing is erased
    EXPECT_GT(store.gc_runs(), 0u);
    EXPECT_EQ(store.evicted(), store.size() - store.live());
}

TEST(NogoodGc, HeldBlockingReferenceSurvivesCollectionsUntilReclaim) {
    // The eviction twin of NogoodStoreLifetime (nogood_exchange_test):
    // hold the pointer blocking_nogood() returned, then force enough
    // records that the collection retires the very nogood it points
    // into. Retirement must leave the literal buffer intact; only
    // reclaim() frees it.
    NogoodStore store(4);
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

    for (topo::VertexId i = 0; i < 1000; ++i) {
        ASSERT_TRUE(store.record(distinct_nogood(i)));
    }
    // The held nogood was retired along the way (it stopped firing), so
    // it no longer blocks — but the reference must still be readable.
    ASSERT_TRUE(store.is_retired(0));
    EXPECT_EQ(store.blocking_nogood(1, 10, value_of), nullptr);
    ASSERT_EQ(blocking->size(), 2u);
    EXPECT_EQ((*blocking)[0].var, 1u);
    EXPECT_EQ((*blocking)[0].value, 10u);
    EXPECT_EQ((*blocking)[1].var, 2u);
    EXPECT_EQ((*blocking)[1].value, 20u);

    // The explicit safe point: reclaim() frees retired buffers. The
    // deque element itself stays (ids are stable), but its literals are
    // gone — which is exactly why the searcher only reclaims at
    // component boundaries, where it holds no references.
    EXPECT_GT(store.reclaim(), 0u);
    EXPECT_TRUE(store.all()[0].empty());
    EXPECT_EQ(store.reclaim(), 0u);  // idempotent until the next GC
}

TEST(NogoodGc, CollectionKeepsTheFiringNogoodOverIdleOnes) {
    // LBD/activity aging: a nogood that keeps blocking branches must
    // outlive idle ones recorded at the same time.
    NogoodStore store(8);
    for (topo::VertexId i = 0; i < 8; ++i) {
        ASSERT_TRUE(store.record(distinct_nogood(i)));
    }
    // Fire nogood 7 repeatedly: {10107, 7}, {10007, 8} with 10107
    // assigned completes it when probing (10007, 8).
    std::unordered_map<topo::VertexId, topo::VertexId> assignment{
        {107, 7}};
    const auto value_of = [&assignment](topo::VertexId u,
                                        topo::VertexId& out) {
        const auto it = assignment.find(u);
        if (it == assignment.end()) return false;
        out = it->second;
        return true;
    };
    for (int fires = 0; fires < 16; ++fires) {
        ASSERT_NE(store.blocking_nogood(10007, 8, value_of), nullptr);
    }
    // Push the store through at least one collection.
    for (topo::VertexId i = 100; i < 110; ++i) {
        ASSERT_TRUE(store.record(distinct_nogood(i)));
    }
    EXPECT_GT(store.gc_runs(), 0u);
    EXPECT_FALSE(store.is_retired(7));  // the firing nogood survived
    EXPECT_TRUE(store.is_retired(0));   // an idle contemporary did not
    ASSERT_NE(store.blocking_nogood(10007, 8, value_of), nullptr);
}

TEST(NogoodGc, ReRecordingARetiredNogoodIsAdmittedAgain) {
    // Retirement removes the nogood from the dedup index too: if the
    // search re-proves a forgotten conflict, it is re-learned (a fresh
    // id), not silently dropped as a duplicate of a dead entry.
    NogoodStore store(4);
    ASSERT_TRUE(store.record({{1, 10}, {2, 20}}));
    ASSERT_FALSE(store.record({{1, 10}, {2, 20}}));  // live duplicate
    EXPECT_EQ(store.rejected_as_duplicate(), 1u);
    for (topo::VertexId i = 0; i < 100; ++i) {
        ASSERT_TRUE(store.record(distinct_nogood(i)));
    }
    ASSERT_TRUE(store.is_retired(0));
    ASSERT_TRUE(store.record({{1, 10}, {2, 20}}));  // re-learned
}

TEST(NogoodGc, CollectionKeepsHalfAndZeroCapacityStaysInert) {
    NogoodStore store(16);
    for (topo::VertexId i = 0; i < 17; ++i) {
        ASSERT_TRUE(store.record(distinct_nogood(i)));
    }
    // One collection fired at live == 16, keeping 16 / 2 = 8, then the
    // 17th record landed on top.
    EXPECT_EQ(store.gc_runs(), 1u);
    EXPECT_EQ(store.live(), 9u);
    EXPECT_EQ(store.evicted(), 8u);

    // The clamp: a one-entry store still frees its slot.
    NogoodStore tiny(1);
    ASSERT_TRUE(tiny.record(distinct_nogood(0)));
    ASSERT_TRUE(tiny.record(distinct_nogood(1)));
    EXPECT_EQ(tiny.live(), 1u);
    EXPECT_EQ(tiny.evicted(), 1u);

    NogoodStore disabled(0);
    EXPECT_FALSE(disabled.record({{1, 1}}));
    EXPECT_EQ(disabled.size(), 0u);
}

}  // namespace
}  // namespace gact
