#include "iis/run.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "iis/run_enumeration.h"

namespace gact::iis {
namespace {

OrderedPartition seq(std::initializer_list<ProcessId> order) {
    return OrderedPartition::sequential(std::vector<ProcessId>(order));
}

OrderedPartition conc(std::initializer_list<ProcessId> procs) {
    return OrderedPartition::concurrent(ProcessSet::of(procs));
}

TEST(Run, ConstructionValidatesDecreasingSupports) {
    // Support grows from {0} to {0,1}: invalid.
    EXPECT_THROW(iis::Run(2, {conc({0})}, {conc({0, 1})}), precondition_error);
    // Cycle rounds with different supports: invalid.
    EXPECT_THROW(iis::Run(2, {}, {conc({0, 1}), conc({0})}), precondition_error);
    // Valid: shrink through prefix, constant cycle.
    EXPECT_NO_THROW(iis::Run(2, {conc({0, 1})}, {conc({0})}));
}

TEST(Run, RoundIndexing) {
    const iis::Run r(3, {seq({0, 1, 2})}, {conc({0, 1}), seq({1, 0})});
    EXPECT_EQ(r.round(0), seq({0, 1, 2}));
    EXPECT_EQ(r.round(1), conc({0, 1}));
    EXPECT_EQ(r.round(2), seq({1, 0}));
    EXPECT_EQ(r.round(3), conc({0, 1}));  // cycle repeats
    EXPECT_EQ(r.round(42), r.round(42 % 2 == 0 ? 2 : 1));
}

TEST(Run, Participants) {
    const iis::Run r(3, {seq({0, 1, 2})}, {conc({0, 1})});
    EXPECT_EQ(r.participants(), ProcessSet::full(3));
    EXPECT_EQ(r.infinite_participants(), ProcessSet::of({0, 1}));
}

TEST(Run, EqualityUnrollsCycles) {
    const iis::Run a = iis::Run::forever(2, conc({0, 1}));
    const iis::Run b(2, {conc({0, 1})}, {conc({0, 1}), conc({0, 1})});
    EXPECT_TRUE(a == b);
    const iis::Run c(2, {}, {seq({0, 1})});
    EXPECT_FALSE(a == c);
}

TEST(Run, TakesStep) {
    const iis::Run r(2, {conc({0, 1})}, {conc({0})});
    EXPECT_TRUE(r.takes_step(1, 1));
    EXPECT_FALSE(r.takes_step(1, 2));
    EXPECT_TRUE(r.takes_step(0, 100));
}

// The paper's Section 2.1 example: p0 solo forever, extended by p1 running
// behind. p0 cannot distinguish the two runs, and r' is an extension of r.
TEST(Run, PaperExtensionExample) {
    const iis::Run r = iis::Run::forever(2, conc({0}));
    const iis::Run r_prime = iis::Run::forever(2, seq({0, 1}));
    EXPECT_TRUE(r_prime.is_extension_of(r));
    EXPECT_FALSE(r.is_extension_of(r_prime));
    // Views of p0 agree in both runs.
    ViewArena arena;
    for (std::size_t k = 0; k <= 4; ++k) {
        EXPECT_EQ(r.view(0, k, arena), r_prime.view(0, k, arena));
    }
}

TEST(Run, ExtensionIsReflexiveAndTransitiveOnSamples) {
    const std::vector<iis::Run> runs = enumerate_stabilized_runs(2, 1);
    for (const iis::Run& r : runs) EXPECT_TRUE(r.is_extension_of(r));
    for (const iis::Run& a : runs) {
        for (const iis::Run& b : runs) {
            if (!b.is_extension_of(a)) continue;
            for (const iis::Run& c : runs) {
                if (c.is_extension_of(b)) {
                    EXPECT_TRUE(c.is_extension_of(a));
                }
            }
        }
    }
}

TEST(Run, MinimalDropsUnseenLaggard) {
    // minimal(({0}|{1})^w) = ({0})^w: p1 is behind and invisible to p0.
    const iis::Run r = iis::Run::forever(2, seq({0, 1}));
    const iis::Run m = r.minimal();
    EXPECT_TRUE(m == iis::Run::forever(2, conc({0})));
    EXPECT_EQ(r.fast(), ProcessSet::of({0}));
    EXPECT_EQ(r.slow(), ProcessSet::of({1}));
}

TEST(Run, MinimalDropsObserverThatIsNeverSeen) {
    // ({1}|{0})^w: p0 sees p1 every round, but p1 never sees p0, so
    // dropping p0 leaves p1's views unchanged: minimal = ({1})^w.
    const iis::Run r = iis::Run::forever(2, seq({1, 0}));
    EXPECT_TRUE(r.minimal() == iis::Run::forever(2, conc({1})));
    EXPECT_EQ(r.fast(), ProcessSet::of({1}));
}

TEST(Run, MinimalOfConcurrentRunIsItself) {
    const iis::Run r = iis::Run::forever(3, conc({0, 1, 2}));
    EXPECT_TRUE(r.minimal() == r);
    EXPECT_EQ(r.fast(), ProcessSet::full(3));
    EXPECT_TRUE(r.is_minimal());
}

TEST(Run, FastOfLeaderWithConcurrentFollowers) {
    // ({0}|{1,2})^w: p0 runs ahead alone; p1,p2 see p0 and each other but
    // p0 never sees them. The smallest run preserving p0's views is p0
    // solo, so fast = {0} (Section 2.1 definitions).
    const iis::Run r = iis::Run::forever(3,
                               OrderedPartition({ProcessSet::of({0}),
                                                 ProcessSet::of({1, 2})}));
    EXPECT_EQ(r.fast(), ProcessSet::of({0}));
    EXPECT_TRUE(r.minimal() == iis::Run::forever(3, conc({0})));
}

TEST(Run, MinimalKeepsPrefixHistoryOfCore) {
    // Prefix: p0 ahead of p1 for 2 rounds; then p0 drops and p1 runs solo.
    // p1 saw p0, so the minimal run keeps p0's prefix participation.
    const iis::Run r(2, {seq({0, 1}), seq({0, 1})}, {conc({1})});
    EXPECT_TRUE(r.minimal() == r);
    EXPECT_EQ(r.fast(), ProcessSet::of({1}));
}

TEST(Run, MinimalTruncatesUnobservedSuffix) {
    // p0 and p1 run concurrently for one round; then p0 continues solo.
    // p0 saw p1 in round 1, so p1's round-1 step is needed; afterwards p1
    // is gone already.
    const iis::Run r(2, {conc({0, 1})}, {conc({0})});
    EXPECT_TRUE(r.minimal() == r);
    EXPECT_EQ(r.fast(), ProcessSet::of({0}));
}

TEST(Run, MinimalIsIdempotentOnEnumeration) {
    for (const iis::Run& r : enumerate_stabilized_runs(3, 1)) {
        const iis::Run m = r.minimal();
        EXPECT_TRUE(m.minimal() == m) << r.to_string();
        EXPECT_TRUE(r.is_extension_of(m)) << r.to_string();
        EXPECT_EQ(r.fast(), m.fast()) << r.to_string();
        EXPECT_EQ(m.infinite_participants(), r.fast()) << r.to_string();
    }
}

TEST(Run, MinimalIsLowerBoundOfAllRestrictions) {
    // minimal(r) must be <= every r' <= r; check against all restrictions
    // of r to process subsets that happen to be valid runs below r.
    for (const iis::Run& r : enumerate_stabilized_runs(2, 1)) {
        const iis::Run m = r.minimal();
        for (const ProcessSet keep :
             nonempty_subsets(ProcessSet::full(2))) {
            if ((r.infinite_participants() & keep).empty()) continue;
            std::vector<OrderedPartition> prefix;
            bool ok = true;
            for (const OrderedPartition& p : r.prefix()) {
                const ProcessSet kept = p.support() & keep;
                if (kept.empty()) {
                    ok = false;
                    break;
                }
                prefix.push_back(p.restrict_to(keep));
            }
            if (!ok) continue;
            const iis::Run restricted(2, prefix,
                                 {r.cycle()[0].restrict_to(keep)});
            if (r.is_extension_of(restricted)) {
                EXPECT_TRUE(restricted.is_extension_of(m))
                    << "r=" << r.to_string()
                    << " restricted=" << restricted.to_string()
                    << " minimal=" << m.to_string();
            }
        }
    }
}

TEST(Run, DistanceMetricAxioms) {
    const iis::Run a = iis::Run::forever(2, conc({0, 1}));
    const iis::Run b = iis::Run::forever(2, seq({0, 1}));
    const iis::Run c(2, {conc({0, 1})}, {seq({0, 1})});
    EXPECT_EQ(a.distance_to(a), Rational(0));
    EXPECT_EQ(a.distance_to(b), b.distance_to(a));
    // a and b differ at round 0: distance 1.
    EXPECT_EQ(a.distance_to(b), Rational(1));
    // a and c agree on round 0 only: distance 1/2.
    EXPECT_EQ(a.distance_to(c), Rational(1, 2));
    // Triangle inequality on this triple.
    EXPECT_LE(a.distance_to(b),
              a.distance_to(c) + c.distance_to(b));
}

TEST(Run, ViewsGrowAlongRun) {
    ViewArena arena;
    const iis::Run r = iis::Run::forever(3, seq({0, 1, 2}));
    // p2 sees everyone immediately.
    EXPECT_EQ(arena.processes_in(r.view(2, 1, arena)), ProcessSet::full(3));
    // p0 never sees anyone.
    EXPECT_EQ(arena.processes_in(r.view(0, 3, arena)), ProcessSet::of({0}));
    // p1 sees p0 only.
    EXPECT_EQ(arena.processes_in(r.view(1, 2, arena)), ProcessSet::of({0, 1}));
}

TEST(Run, SameBlockProcessesShareViewContent) {
    ViewArena arena;
    const iis::Run r = iis::Run::forever(2, conc({0, 1}));
    const ViewId v0 = r.view(0, 2, arena);
    const ViewId v1 = r.view(1, 2, arena);
    EXPECT_NE(v0, v1);  // owners differ
    EXPECT_TRUE(std::ranges::equal(arena.node(v0).seen, arena.node(v1).seen));
}

TEST(Run, ViewWithInputs) {
    ViewArena arena;
    const iis::Run r = iis::Run::forever(2, conc({0, 1}));
    const std::vector<std::optional<topo::VertexId>> inputs = {5, 9};
    const ViewId v = r.view(0, 1, arena, &inputs);
    const ViewNode& n = arena.node(v);
    ASSERT_EQ(n.seen.size(), 2u);
    EXPECT_EQ(arena.node(n.seen[0]).input, topo::VertexId{5});
    EXPECT_EQ(arena.node(n.seen[1]).input, topo::VertexId{9});
}

TEST(Run, ViewOfDroppedProcessThrows) {
    ViewArena arena;
    const iis::Run r(2, {conc({0, 1})}, {conc({0})});
    EXPECT_NO_THROW(r.view(1, 1, arena));
    EXPECT_THROW(r.view(1, 2, arena), precondition_error);
}

TEST(Run, ViewTableMatchesRecursiveViews) {
    ViewArena arena;
    const iis::Run r(3, {seq({2, 0, 1})}, {conc({0, 2})});
    const auto table = r.view_table(3, arena);
    for (ProcessId p = 0; p < 3; ++p) {
        for (std::size_t k = 0; k <= 3; ++k) {
            if (k >= 1 && !r.round(k - 1).contains(p)) {
                EXPECT_FALSE(table[k][p].has_value());
            } else {
                EXPECT_EQ(*table[k][p], r.view(p, k, arena));
            }
        }
    }
}

TEST(Run, ToString) {
    const iis::Run r(2, {conc({0, 1})}, {conc({0})});
    EXPECT_EQ(r.to_string(), "({0,1})(({0}))^w");
}

}  // namespace
}  // namespace gact::iis
