#include "iis/affine_projection.h"

#include <gtest/gtest.h>

#include "core/lt_pipeline.h"
#include "engine/general_route.h"
#include "iis/projection.h"
#include "iis/run_enumeration.h"

namespace gact::iis {
namespace {

OrderedPartition conc(std::initializer_list<ProcessId> procs) {
    return OrderedPartition::concurrent(ProcessSet::of(procs));
}

OrderedPartition seq(std::initializer_list<ProcessId> order) {
    return OrderedPartition::sequential(std::vector<ProcessId>(order));
}

TEST(AffineProjection, SoloRunProjectsToItsCorner) {
    const iis::Run solo = iis::Run::forever(3, conc({1}));
    EXPECT_EQ(affine_projection(solo), topo::BaryPoint::vertex(1));
}

TEST(AffineProjection, LockstepRunProjectsToBarycenter) {
    const iis::Run lockstep = iis::Run::forever(3, conc({0, 1, 2}));
    EXPECT_EQ(affine_projection(lockstep),
              topo::BaryPoint::barycenter(topo::Simplex{0, 1, 2}));
}

TEST(AffineProjection, LeaderAheadProjectsToLeaderCorner) {
    // fast = {0}: the projection ignores the followers entirely.
    const iis::Run r = iis::Run::forever(
        3, OrderedPartition({ProcessSet::of({0}), ProcessSet::of({1, 2})}));
    EXPECT_EQ(affine_projection(r), topo::BaryPoint::vertex(0));
}

TEST(AffineProjection, StationaryWeightsArePositiveAndSumToOne) {
    const iis::Run r(3, {seq({2, 0, 1})}, {seq({0, 1, 2}), seq({1, 0, 2})});
    Rational total;
    for (const auto& [p, w] : tail_stationary_distribution(r)) {
        EXPECT_FALSE(w.is_negative());
        EXPECT_FALSE(w.is_zero());  // irreducible chain: full support
        total += w;
    }
    EXPECT_EQ(total, Rational(1));
}

TEST(AffineProjection, ProjectionLiesInEverySigmaK) {
    // pi(r) is the limit of the nested simplex chain, so it lies in the
    // hull of the round-k views for every k.
    const std::vector<topo::VertexId> inputs = {0, 1, 2};
    const std::vector<iis::Run> samples = {
        iis::Run::forever(3, conc({0, 1, 2})),
        iis::Run::forever(3, seq({1, 2, 0})),
        iis::Run(3, {seq({2, 0, 1})}, {conc({0, 1})}),
        iis::Run(3, {}, {seq({0, 1}), seq({1, 0})}),
    };
    for (const iis::Run& r : samples) {
        const topo::BaryPoint pi = affine_projection(r);
        for (std::size_t k = 1; k <= 5; ++k) {
            const auto points = run_simplex_positions(r, k, inputs);
            EXPECT_TRUE(topo::point_in_simplex(pi, points))
                << r.to_string() << " at round " << k;
        }
    }
}

TEST(AffineProjection, InvariantUnderMinimal) {
    // The paper identifies pi(r) with minimal(r): both have the same
    // projection.
    for (const iis::Run& r : enumerate_stabilized_runs(3, 1)) {
        EXPECT_EQ(affine_projection(r), affine_projection(r.minimal()))
            << r.to_string();
    }
}

TEST(AffineProjection, AlternatingPairConvergesInsideTheEdge) {
    // Period-2 alternation between ({0}|{1}) and ({1}|{0}): both
    // processes are fast; the limit is an interior point of edge {0,1}.
    const iis::Run r(2, {}, {seq({0, 1}), seq({1, 0})});
    EXPECT_EQ(r.fast(), ProcessSet::full(2));
    const topo::BaryPoint pi = affine_projection(r);
    EXPECT_EQ(pi.support(), topo::Simplex({0, 1}));
    // Process 0 moved first in the cycle, so the limit leans toward 0's
    // corner being seen more: check it is a genuine mix.
    EXPECT_GT(pi.coord(0), Rational(0));
    EXPECT_GT(pi.coord(1), Rational(0));
}

TEST(AffineProjection, LandingSimplicesContainTheProjection) {
    // Cross-module: the L_1 pipeline's landing simplex of a run contains
    // pi(r) — landing localizes the limit point.
    const engine::GeneralWitness w = engine::build_general_witness(
        tasks::t_resilience_task(2, 1), engine::LtStableRule(2, 1), 2 + 2,
        /*fix_identity=*/true, core::LtGuidance::kRadial,
        core::SolverConfig::fast());
    const iis::TResilientModel res1(3, 1);
    std::size_t checked = 0;
    for (const iis::Run& r :
         filter_by_model(enumerate_stabilized_runs(3, 0), res1)) {
        const auto landing = core::find_landing(w.tsub, r, 8);
        ASSERT_TRUE(landing.has_value()) << r.to_string();
        EXPECT_TRUE(w.tsub.stable_simplex_contains(landing->stable_facet,
                                                   {affine_projection(r)}))
            << r.to_string();
        ++checked;
    }
    EXPECT_GT(checked, 0u);
}

TEST(AffineProjection, GeometricModelMembership) {
    // The geometric model pi^{-1}(|L_1|): runs converging into the
    // figure's central region.
    const tasks::AffineTask l1 = tasks::t_resilience_task(2, 1);
    const GeometricModel into_l1(
        "pi^-1(L_1)", [&l1](const topo::BaryPoint& x) {
            return core::point_in_l(l1, x);
        });
    EXPECT_TRUE(into_l1.contains(iis::Run::forever(3, conc({0, 1, 2}))));
    EXPECT_FALSE(into_l1.contains(iis::Run::forever(3, conc({0}))));
    // Every Res_1 run projects into the complement of the corners; most
    // land in L_1 or its collar.
    EXPECT_EQ(into_l1.name(), "pi^-1(L_1)");
}

TEST(AffineProjection, GeometricVsAdversarialResilience) {
    // Res_1 is geometric (Section 5): its runs are exactly those whose
    // projection avoids the corner cells. We check one inclusion on the
    // enumeration: Res_1 runs never project to a corner.
    const iis::TResilientModel res1(3, 1);
    for (const iis::Run& r :
         filter_by_model(enumerate_stabilized_runs(3, 1), res1)) {
        const topo::BaryPoint pi = affine_projection(r);
        EXPECT_GE(pi.support().dimension(), 1) << r.to_string();
    }
}

}  // namespace
}  // namespace gact::iis
