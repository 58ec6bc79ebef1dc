#include "core/lt_pipeline.h"

#include <gtest/gtest.h>

#include <map>

#include "engine/general_route.h"

namespace gact::core {
namespace {

// The Section 9.2 construction for n = 2, t = 1 with two rings (2 + 2
// stages); built once, it is deterministic and somewhat expensive.
struct Lt21 {
    tasks::AffineTask task = tasks::t_resilience_task(2, 1);
    engine::GeneralWitness witness = engine::build_general_witness(
        task, engine::LtStableRule(2, 1), 2 + 2, /*fix_identity=*/true,
        LtGuidance::kRadial, SolverConfig::fast());
};

const Lt21& lt21() {
    static const Lt21 p;
    return p;
}

TEST(LtConstruction, BuildsForN2T1) {
    const Lt21& p = lt21();
    EXPECT_FALSE(p.witness.tsub.stable_complex().is_empty());
    EXPECT_TRUE(p.witness.delta.has_value());
    EXPECT_EQ(p.task.task.validate(), "");
}

TEST(LtConstruction, RingZeroIsL1) {
    const Lt21& p = lt21();
    const TerminatingSubdivision& tsub = p.witness.tsub;
    // Ring-0 stable facets are exactly the facets of L_1.
    std::size_t ring0 = 0;
    for (const Simplex& f : tsub.stable_facets()) {
        if (ring_of_stable_facet(tsub, f) == 0) ++ring0;
    }
    EXPECT_EQ(ring0, p.task.l_complex.facets().size());
}

TEST(LtConstruction, RingsPartitionStableFacets) {
    const Lt21& p = lt21();
    const TerminatingSubdivision& tsub = p.witness.tsub;
    std::map<std::size_t, std::size_t> by_ring;
    for (const Simplex& f : tsub.stable_facets()) {
        ++by_ring[ring_of_stable_facet(tsub, f)];
    }
    // Two stabilization stages: rings 0 and 1 exist.
    ASSERT_EQ(by_ring.size(), 2u);
    EXPECT_GT(by_ring[0], 0u);
    EXPECT_GT(by_ring[1], 0u);
}

TEST(LtConstruction, StableVerticesAvoidForbiddenSkeleton) {
    const Lt21& p = lt21();
    // No stable vertex of K(T) lies on the 0-skeleton (corners), by the
    // stabilization rule (n - t = 1).
    const TerminatingSubdivision& tsub = p.witness.tsub;
    for (topo::VertexId v : tsub.stable_complex().vertex_ids()) {
        EXPECT_GE(tsub.stable_position(v).support().dimension(), 1);
    }
}

TEST(LtConstruction, DeltaIsAValidApproximation) {
    const Lt21& p = lt21();
    ASSERT_TRUE(p.witness.delta.has_value());
    const SimplicialMap& delta = *p.witness.delta;
    // delta is chromatic, simplicial, and carrier-preserving into Delta.
    const ChromaticComplex& k = p.witness.tsub.stable_complex();
    EXPECT_TRUE(delta.is_simplicial(k.complex(),
                                    p.task.task.outputs.complex()));
    EXPECT_TRUE(delta.is_chromatic(k, p.task.task.outputs));
    for (const Simplex& sigma : k.complex().simplices()) {
        const Simplex carrier = p.witness.tsub.stable_carrier(sigma);
        EXPECT_TRUE(p.task.task.delta.allows(carrier, delta.apply(sigma)))
            << sigma.to_string();
    }
}

TEST(LtConstruction, DeltaIsIdentityOnRingZero) {
    const Lt21& p = lt21();
    ASSERT_TRUE(p.witness.delta.has_value());
    const TerminatingSubdivision& tsub = p.witness.tsub;
    for (topo::VertexId v : tsub.stable_complex().vertex_ids()) {
        const auto lv = p.task.subdivision.find_vertex(
            tsub.stable_position(v), tsub.stable_complex().color(v));
        if (lv.has_value() && p.task.l_complex.contains_vertex(*lv)) {
            EXPECT_EQ(p.witness.delta->apply(v), *lv);
        }
    }
}

TEST(LtConstruction, RadialProjectionFixesL) {
    const Lt21& p = lt21();
    const topo::BaryPoint center = topo::BaryPoint::barycenter(
        Simplex{0, 1, 2});
    EXPECT_EQ(RadialProjection(p.task).project(center), center);
}

TEST(LtConstruction, RadialProjectionSendsOutsideToBoundary) {
    const Lt21& p = lt21();
    // A point near corner 0 (outside L_1) projects onto the boundary.
    const topo::BaryPoint x{{{0, Rational(9, 10)},
                             {1, Rational(1, 20)},
                             {2, Rational(1, 20)}}};
    ASSERT_FALSE(point_in_l(p.task, x));
    const topo::BaryPoint fx = RadialProjection(p.task).project(x);
    EXPECT_TRUE(point_in_l(p.task, fx));
    // The image lies on a boundary edge of L_1.
    bool on_boundary = false;
    for (const Simplex& e : l_boundary_edges(p.task)) {
        if (topo::point_in_simplex(fx, p.task.subdivision.positions_of(e))) {
            on_boundary = true;
        }
    }
    EXPECT_TRUE(on_boundary);
}

TEST(LtConstruction, RadialProjectionPreservesBoundaryFaces) {
    // The paper: "radial projection preserves boundaries". A point on an
    // edge of s projects to a point of the same edge.
    const Lt21& p = lt21();
    const topo::BaryPoint x{{{0, Rational(19, 20)}, {1, Rational(1, 20)}}};
    ASSERT_FALSE(point_in_l(p.task, x));
    const topo::BaryPoint fx = RadialProjection(p.task).project(x);
    EXPECT_TRUE(fx.support().is_face_of(Simplex{0, 1}));
}

TEST(LtConstruction, RadialProjectionOnStableVertices) {
    // f is defined on all of |K(T)| and is the identity exactly on R_0.
    const Lt21& p = lt21();
    const RadialProjection f(p.task);
    const TerminatingSubdivision& tsub = p.witness.tsub;
    for (topo::VertexId v : tsub.stable_complex().vertex_ids()) {
        const topo::BaryPoint& x = tsub.stable_position(v);
        const topo::BaryPoint fx = f.project(x);
        EXPECT_TRUE(point_in_l(p.task, fx));
        if (point_in_l(p.task, x)) {
            EXPECT_EQ(fx, x);
        }
    }
}

TEST(LtConstruction, AdmissibleForResilientRuns) {
    const Lt21& p = lt21();
    const iis::TResilientModel res1(3, 1);
    const auto runs = iis::filter_by_model(
        iis::enumerate_stabilized_runs(3, 1), res1);
    ASSERT_FALSE(runs.empty());
    const AdmissibilityReport report =
        check_admissibility(p.witness.tsub, runs, 8);
    EXPECT_TRUE(report.admissible)
        << report.failures.size() << " failures; first: "
        << (report.failures.empty() ? "" : report.failures[0].to_string());
    EXPECT_EQ(report.runs_checked, runs.size());
    EXPECT_GE(report.max_landing_round, 1u);
}

TEST(LtConstruction, SoloRunNeverLands) {
    // A solo run converges to a corner, which K(T) never covers: not
    // admissible — and indeed not a Res_1 run.
    const Lt21& p = lt21();
    const iis::Run solo = iis::Run::forever(
        3, iis::OrderedPartition::concurrent(ProcessSet::of({0})));
    EXPECT_FALSE(find_landing(p.witness.tsub, solo, 10).has_value());
    EXPECT_FALSE(iis::TResilientModel(3, 1).contains(solo));
}

TEST(LtConstruction, FullyConcurrentRunLandsImmediately) {
    const TerminatingSubdivision& tsub = lt21().witness.tsub;
    const iis::Run lockstep = iis::Run::forever(
        3, iis::OrderedPartition::concurrent(ProcessSet::full(3)));
    const auto landing = find_landing(tsub, lockstep, 8);
    ASSERT_TRUE(landing.has_value());
    // The lockstep run stays at the barycentric center, inside R_0.
    EXPECT_LE(landing->round, 3u);
    EXPECT_EQ(ring_of_stable_facet(tsub, landing->stable_facet), 0u);
}

TEST(LtConstruction, StableRuleRejectsEarlyStages) {
    const topo::ChromaticComplex s = topo::ChromaticComplex::standard_simplex(2);
    const SubdividedComplex id = SubdividedComplex::identity(s);
    EXPECT_FALSE(lt_stable_rule(2, 1, id, Simplex{0, 1, 2}));
}

}  // namespace
}  // namespace gact::core
