// Edge cases and small-dimension degeneracies across the library.
#include <gtest/gtest.h>

#include <compare>

#include "core/act_solver.h"
#include "core/lt_pipeline.h"
#include "engine/general_route.h"
#include "iis/projection.h"
#include "iis/run_enumeration.h"
#include "tasks/standard_tasks.h"
#include "topology/homology.h"
#include "topology/subdivision.h"

namespace gact {
namespace {

using topo::ChromaticComplex;
using topo::Simplex;
using topo::SimplicialComplex;
using topo::SubdividedComplex;

// ---------- build-regression pins ----------

// The seed failed to build under any pre-C++20 standard: Simplex,
// ProcessSet and BaryPoint use defaulted operator==, and Rational uses
// std::strong_ordering. Pin the standard and the operators so a build
// configured below C++20 (the original bring-up failure) cannot come
// back silently.
static_assert(__cplusplus >= 202002L,
              "gact requires C++20 (defaulted comparisons, <=>)");

TEST(BuildRegressions, DefaultedComparisonsWork) {
    EXPECT_TRUE(Simplex({0, 1}) == Simplex({1, 0}));
    EXPECT_FALSE(Simplex({0, 1}) == Simplex({0, 2}));
    EXPECT_TRUE(ProcessSet::of({0, 2}) == ProcessSet::of({2, 0}));
    const std::strong_ordering order = Rational(1, 2) <=> Rational(2, 3);
    EXPECT_TRUE(order == std::strong_ordering::less);
    EXPECT_LT(Rational(1, 2), Rational(2, 3));
}

// ---------- degenerate dimensions ----------

TEST(EdgeCases, ZeroDimensionalWorld) {
    // One process: s is a point; Chr s = s; the IS task is trivial.
    const ChromaticComplex pt = ChromaticComplex::standard_simplex(0);
    const SubdividedComplex chr =
        SubdividedComplex::identity(pt).chromatic_subdivision();
    EXPECT_EQ(chr.complex().facets().size(), 1u);
    chr.verify_subdivision_exactness();

    const tasks::AffineTask is = tasks::immediate_snapshot_task(0);
    const core::ActResult act =
        core::run_act_search(is.task, 1, core::SolverConfig::fast());
    EXPECT_TRUE(act.solvable);
    EXPECT_EQ(act.witness_depth, 0);  // Chr^0 already maps (identity)
}

TEST(EdgeCases, SingleProcessRunSemantics) {
    const iis::Run solo = iis::Run::forever(
        1, iis::OrderedPartition::concurrent(ProcessSet::of({0})));
    EXPECT_EQ(solo.fast(), ProcessSet::of({0}));
    EXPECT_TRUE(solo.slow().empty());
    EXPECT_TRUE(solo.is_minimal());
    iis::ViewArena arena;
    EXPECT_EQ(arena.processes_in(solo.view(0, 5, arena)),
              ProcessSet::of({0}));
}

TEST(EdgeCases, TResilienceWithTZeroOnTwoProcesses) {
    // n = 1, t = 0: no vertex on the 0-skeleton: the middle 5 edges of
    // the 9-edge path... precisely the sub-edges avoiding the corners.
    const tasks::AffineTask l0 = tasks::t_resilience_task(1, 0);
    EXPECT_EQ(l0.task.validate(), "");
    for (const Simplex& f : l0.l_complex.facets()) {
        for (topo::VertexId v : f.vertices()) {
            EXPECT_EQ(l0.subdivision.carrier(v).dimension(), 1);
        }
    }
    EXPECT_EQ(l0.l_complex.facets().size(), 7u);
}

// ---------- rationals near the representation edge ----------

TEST(EdgeCases, RationalDeepSubdivisionCoordinates) {
    // Ten nested subdivisions on the edge: denominators 3^10 stay exact.
    const ChromaticComplex s = ChromaticComplex::standard_simplex(1);
    SubdividedComplex chr = SubdividedComplex::identity(s);
    for (int i = 0; i < 10; ++i) chr = chr.chromatic_subdivision();
    EXPECT_EQ(chr.complex().facets().size(), 59049u);  // 3^10
    // The leftmost interior vertex is at distance 3^-10 from the corner.
    Rational closest(1);
    for (topo::VertexId v : chr.complex().vertex_ids()) {
        const Rational d =
            chr.position(v).l1_distance(topo::BaryPoint::vertex(0));
        if (!d.is_zero() && d < closest) closest = d;
    }
    EXPECT_EQ(closest, Rational(2, 59049));
}

// ---------- homology odds and ends ----------

TEST(EdgeCases, HomologyOfDisjointCircles) {
    SimplicialComplex two_circles = SimplicialComplex::from_facets(
        {Simplex{0, 1}, Simplex{1, 2}, Simplex{0, 2},
         Simplex{10, 11}, Simplex{11, 12}, Simplex{10, 12}});
    const auto h = topo::reduced_homology(two_circles);
    EXPECT_EQ(h[0].betti, 1u);  // two components: reduced b0 = 1
    EXPECT_EQ(h[1].betti, 2u);
}

TEST(EdgeCases, WedgeOfTwoCircles) {
    SimplicialComplex wedge = SimplicialComplex::from_facets(
        {Simplex{0, 1}, Simplex{1, 2}, Simplex{0, 2},
         Simplex{0, 3}, Simplex{3, 4}, Simplex{0, 4}});
    const auto h = topo::reduced_homology(wedge);
    EXPECT_TRUE(h[0].is_trivial());
    EXPECT_EQ(h[1].betti, 2u);
}

// ---------- run representation corner cases ----------

TEST(EdgeCases, LongCycleRunsCompareCorrectly) {
    using iis::OrderedPartition;
    const OrderedPartition a =
        OrderedPartition::concurrent(ProcessSet::full(2));
    const OrderedPartition b = OrderedPartition::sequential({0, 1});
    // (ab)^w written two ways.
    const iis::Run r1(2, {}, {a, b});
    const iis::Run r2(2, {a, b, a, b}, {a, b});
    EXPECT_TRUE(r1 == r2);
    // (ab)^w vs (ba)^w differ.
    const iis::Run r3(2, {}, {b, a});
    EXPECT_FALSE(r1 == r3);
    EXPECT_EQ(r1.distance_to(r3), Rational(1));
    // (ab)^w vs a(ba)^w agree everywhere.
    const iis::Run r4(2, {a}, {b, a});
    EXPECT_TRUE(r1 == r4);
}

TEST(EdgeCases, MinimalOfPeriodTwoCycle) {
    using iis::OrderedPartition;
    // Alternating leadership: both processes see each other cofinally.
    const OrderedPartition ab = OrderedPartition::sequential({0, 1});
    const OrderedPartition ba = OrderedPartition::sequential({1, 0});
    const iis::Run r(2, {}, {ab, ba});
    EXPECT_TRUE(r.minimal() == r);
    EXPECT_EQ(r.fast(), ProcessSet::full(2));
}

TEST(EdgeCases, ViewPositionsOnSubFace) {
    // Two participants of three: positions stay on the edge {0,2}.
    const iis::Run duo = iis::Run::forever(
        3, iis::OrderedPartition::sequential({2, 0}));
    const std::vector<topo::VertexId> inputs = {0, 1, 2};
    const auto table = iis::view_positions(duo, 4, inputs);
    for (ProcessId p : {0u, 2u}) {
        EXPECT_TRUE(table[4][p]->support().is_face_of(Simplex{0, 2}));
    }
    EXPECT_FALSE(table[4][1].has_value());
}

// ---------- solver guardrails ----------

TEST(EdgeCases, ActDepthZeroOnly) {
    const tasks::Task trivial = tasks::k_set_agreement_task(2, 2, 2);
    const core::ActResult act =
        core::run_act_search(trivial, 0, core::SolverConfig::fast());
    EXPECT_TRUE(act.solvable);
    EXPECT_EQ(act.witness_depth, 0);
    EXPECT_EQ(act.backtracks_per_depth.size(), 1u);
}

TEST(EdgeCases, FindLandingHorizonZeroFindsNothing) {
    const engine::GeneralWitness w = engine::build_general_witness(
        tasks::t_resilience_task(2, 1), engine::LtStableRule(2, 1), 2 + 1,
        /*fix_identity=*/true, core::LtGuidance::kRadial,
        core::SolverConfig::fast());
    const iis::Run lockstep = iis::Run::forever(
        3, iis::OrderedPartition::concurrent(ProcessSet::full(3)));
    EXPECT_FALSE(core::find_landing(w.tsub, lockstep, 0).has_value());
}

}  // namespace
}  // namespace gact
