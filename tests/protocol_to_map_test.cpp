// The "=>" direction: from protocols back to topological maps.
#include "core/protocol_to_map.h"

#include <gtest/gtest.h>

#include "core/lt_pipeline.h"
#include "engine/general_route.h"
#include "protocol/gact_protocol.h"
#include "protocol/simple_protocols.h"
#include "tasks/standard_tasks.h"

namespace gact::core {
namespace {

TEST(ViewOfVertex, DepthZeroIsInitialView) {
    iis::SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(2));
    iis::ViewArena arena;
    const iis::ViewId v = view_of_vertex(chain, arena, 0, 1);
    EXPECT_EQ(arena.node(v).owner, 1u);
    EXPECT_EQ(arena.node(v).depth, 0);
}

TEST(ViewOfVertex, MatchesRunSemantics) {
    // The vertex reached by a run's view must reconstruct exactly that
    // view: view_of_vertex inverts view_vertex.
    iis::SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(2));
    iis::ViewArena arena;
    const topo::Simplex s{0, 1, 2};
    const std::vector<iis::Run> runs = {
        iis::Run::forever(3, iis::OrderedPartition::sequential({2, 0, 1})),
        iis::Run::forever(3, iis::OrderedPartition::concurrent(
                                 ProcessSet::full(3))),
        iis::Run(3, {iis::OrderedPartition::sequential({1, 0, 2})},
                 {iis::OrderedPartition::concurrent(ProcessSet::of({0, 2}))}),
    };
    for (const iis::Run& run : runs) {
        for (std::size_t k = 0; k <= 2; ++k) {
            for (gact::ProcessId p : (k == 0 ? run.participants()
                                             : run.round(k - 1).support())
                                         .members()) {
                const topo::VertexId vert =
                    iis::view_vertex(chain, run, p, k, s);
                EXPECT_EQ(view_of_vertex(chain, arena, k, vert),
                          run.view(p, k, arena))
                    << run.to_string() << " p" << p << " k" << k;
            }
        }
    }
}

TEST(ViewOfVertex, EveryChrVertexHasConsistentOwner) {
    iis::SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(2));
    iis::ViewArena arena;
    for (std::size_t k = 1; k <= 2; ++k) {
        for (topo::VertexId v : chain.level(k).complex().vertex_ids()) {
            const iis::ViewId view = view_of_vertex(chain, arena, k, v);
            EXPECT_EQ(arena.node(view).owner,
                      chain.level(k).complex().color(v));
            EXPECT_EQ(arena.node(view).depth, static_cast<int>(k));
        }
    }
}

TEST(ExtractEta, IsProtocolYieldsCorollary71Witness) {
    // The IS-task protocol decides every view at depth 1; its extraction
    // is total and is a valid ACT witness — the "=>" direction of
    // Corollary 7.1, constructively.
    const tasks::AffineTask is = tasks::immediate_snapshot_task(2);
    const protocol::IsTaskProtocol protocol(is);
    iis::SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(2));
    iis::ViewArena arena;
    const EtaExtraction extraction = extract_eta(protocol, chain, arena, 1);
    ASSERT_TRUE(extraction.total());
    const ChromaticMapProblem problem = act_problem(is.task, chain.level(1));
    EXPECT_EQ(check_chromatic_map(problem, extraction.eta), "");
}

TEST(ExtractEta, IsProtocolIsTheIdentityOnChr) {
    const tasks::AffineTask is = tasks::immediate_snapshot_task(2);
    const protocol::IsTaskProtocol protocol(is);
    iis::SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(2));
    iis::ViewArena arena;
    const EtaExtraction extraction = extract_eta(protocol, chain, arena, 1);
    for (topo::VertexId v : chain.level(1).complex().vertex_ids()) {
        // The protocol outputs the Chr s vertex of the snapshot: since the
        // task's subdivision is built the same way, eta is the identity
        // up to the shared vertex numbering.
        EXPECT_EQ(chain.level(1).position(v),
                  is.subdivision.position(extraction.eta.apply(v)));
    }
}

TEST(ExtractEta, GactLtProtocolIsPartialAtEveryDepth) {
    // The Res_1 protocol for L_1 cannot decide wait-free: at every fixed
    // depth k, some Chr^k vertex has a view outside the protocol's domain
    // (the solo corner views never land in K(T)). This is the
    // introduction's point about non-compact models: no uniform k_T.
    const engine::GeneralWitness pipeline = engine::build_general_witness(
        tasks::t_resilience_task(2, 1), engine::LtStableRule(2, 1), 2 + 2,
        /*fix_identity=*/true, LtGuidance::kRadial, SolverConfig::fast());
    ASSERT_TRUE(pipeline.delta.has_value());
    const iis::TResilientModel res1(3, 1);
    const auto runs = iis::filter_by_model(
        iis::enumerate_stabilized_runs(3, 1), res1);
    iis::ViewArena arena;
    const auto build = protocol::build_gact_protocol(
        pipeline.tsub, *pipeline.delta, runs, 8, arena);
    ASSERT_EQ(build.conflicts, 0u);

    iis::SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(2));
    for (std::size_t k = 1; k <= 2; ++k) {
        const EtaExtraction extraction =
            extract_eta(build.protocol, chain, arena, k);
        EXPECT_FALSE(extraction.total()) << "depth " << k;
        // The corner vertices (solo views) are always undecided.
        bool corner_undecided = false;
        for (topo::VertexId v : extraction.undecided) {
            if (chain.level(k).carrier(v).size() == 1) corner_undecided = true;
        }
        EXPECT_TRUE(corner_undecided);
    }
}

}  // namespace
}  // namespace gact::core
