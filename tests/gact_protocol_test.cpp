// The end-to-end reproduction of Proposition 9.2 (experiment E8 of
// DESIGN.md): GACT builds a terminating subdivision and a chromatic map
// for L_1 in Res_1; protocol extraction turns them into an executable
// protocol; the Definition 4.1 verifier confirms solvability on the
// compact run family.
#include "protocol/gact_protocol.h"

#include <gtest/gtest.h>

#include "engine/general_route.h"
#include "protocol/verifier.h"

namespace gact::protocol {
namespace {

struct Fixture {
    tasks::AffineTask task = tasks::t_resilience_task(2, 1);
    engine::GeneralWitness pipeline = engine::build_general_witness(
        task, engine::LtStableRule(2, 1), 2 + 2, /*fix_identity=*/true,
        core::LtGuidance::kRadial, core::SolverConfig::fast());
    std::vector<iis::Run> runs;
    ViewArena arena;
    GactProtocolBuild build;

    Fixture() {
        const iis::TResilientModel res1(3, 1);
        runs = iis::filter_by_model(iis::enumerate_stabilized_runs(3, 1),
                                    res1);
        build = build_gact_protocol(pipeline.tsub, pipeline.delta.value(),
                                    runs, 8, arena);
    }
};

Fixture& fixture() {
    static Fixture f;
    return f;
}

TEST(GactProtocol, AllResilientRunsLand) {
    Fixture& f = fixture();
    EXPECT_EQ(f.build.landed_runs, f.build.total_runs);
    EXPECT_GT(f.build.total_runs, 0u);
}

TEST(GactProtocol, NoConflictsInTheTable) {
    // The heart of Theorem 6.1 "<=": the landing rule never assigns two
    // different outputs to one view.
    Fixture& f = fixture();
    EXPECT_EQ(f.build.conflicts, 0u);
    EXPECT_GT(f.build.protocol.size(), 0u);
}

TEST(GactProtocol, SolvesLtInResOne) {
    Fixture& f = fixture();
    const auto report =
        verify_inputless(f.task.task, f.build.protocol, f.runs, 8, f.arena);
    EXPECT_TRUE(report.solved) << report.summary();
    EXPECT_EQ(report.runs_checked, f.runs.size());
}

TEST(GactProtocol, SlowObserverAlsoDecides) {
    // A Res_1 run where p2 runs forever behind the fast pair {0,1}: p2 is
    // infinitely participating, so it must decide too (Definition 4.1),
    // even though it is not fast.
    Fixture& f = fixture();
    const iis::Run behind = iis::Run::forever(
        3, iis::OrderedPartition(
               {ProcessSet::of({0, 1}), ProcessSet::of({2})}));
    ASSERT_TRUE(iis::TResilientModel(3, 1).contains(behind));
    const auto report =
        verify_inputless(f.task.task, f.build.protocol, {behind}, 8, f.arena);
    EXPECT_TRUE(report.solved) << report.summary();
}

TEST(GactProtocol, OutputsRespectParticipationFaces) {
    // Two-participant runs must produce outputs inside Delta(edge).
    Fixture& f = fixture();
    const iis::Run duo = iis::Run::forever(
        3, iis::OrderedPartition::concurrent(ProcessSet::of({0, 2})));
    ASSERT_TRUE(iis::TResilientModel(3, 1).contains(duo));
    const auto report =
        verify_inputless(f.task.task, f.build.protocol, {duo}, 8, f.arena);
    EXPECT_TRUE(report.solved) << report.summary();
}

TEST(GactProtocol, CorruptedDeltaIsCaught) {
    // Corrupt delta on a stable facet that runs actually land in: send
    // its color-0 vertex to a far-away color-0 output. The outputs of a
    // landed run then fail to form an allowed simplex, and the verifier
    // (or the table builder) must notice. Failure-injection check of
    // DESIGN.md.
    Fixture& f = fixture();
    const iis::Run lockstep = iis::Run::forever(
        3, iis::OrderedPartition::concurrent(ProcessSet::full(3)));
    const auto landing = core::find_landing(f.pipeline.tsub, lockstep, 8);
    ASSERT_TRUE(landing.has_value());
    const auto& k = f.pipeline.tsub.stable_complex();
    const topo::VertexId victim =
        k.vertex_with_color(landing->stable_facet, 0);

    core::SimplicialMap corrupted = *f.pipeline.delta;
    const topo::VertexId old_image = corrupted.apply(victim);
    // Farthest same-colored output vertex.
    topo::VertexId far = old_image;
    Rational best(0);
    for (topo::VertexId w : f.task.task.outputs.vertex_ids()) {
        if (f.task.task.outputs.color(w) != 0) continue;
        const Rational d = f.task.subdivision.position(w).l1_distance(
            f.task.subdivision.position(old_image));
        if (d > best) {
            best = d;
            far = w;
        }
    }
    ASSERT_NE(far, old_image);
    corrupted.set(victim, far);

    ViewArena arena;
    const GactProtocolBuild bad = build_gact_protocol(
        f.pipeline.tsub, corrupted, f.runs, 8, arena);
    const auto report = verify_inputless(f.task.task, bad.protocol,
                                         f.runs, 8, arena);
    // Either the table already conflicts, or verification fails.
    EXPECT_TRUE(bad.conflicts > 0 || !report.solved);
}

TEST(GactProtocol, HigherHorizonOnlyAddsDecisions) {
    Fixture& f = fixture();
    ViewArena arena;
    const GactProtocolBuild deeper = build_gact_protocol(
        f.pipeline.tsub, *f.pipeline.delta, f.runs, 10, arena);
    EXPECT_EQ(deeper.conflicts, 0u);
    EXPECT_GE(deeper.protocol.size(), f.build.protocol.size());
    const auto report =
        verify_inputless(f.task.task, deeper.protocol, f.runs, 10, arena);
    EXPECT_TRUE(report.solved) << report.summary();
}

}  // namespace
}  // namespace gact::protocol
