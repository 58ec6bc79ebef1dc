#include "core/act_solver.h"

#include "tasks/standard_tasks.h"

#include <gtest/gtest.h>

namespace gact::core {
namespace {

/// The wait-free search with a 2M per-depth backtrack budget.
ActResult search_wait_free(const tasks::Task& task, int max_k) {
    return run_act_search(task, max_k, SolverConfig::fast(2000000));
}

TEST(ActSolver, ImmediateSnapshotTaskSolvableAtDepthOne) {
    const tasks::AffineTask is = tasks::immediate_snapshot_task(2);
    const ActResult result = search_wait_free(is.task, 2);
    ASSERT_TRUE(result.solvable);
    EXPECT_EQ(result.witness_depth, 1);
    // The identity on Chr s is a witness; whatever the search found must
    // pass the full Corollary 7.1 check (done inside the solver), and the
    // k = 0 attempt must have been exhausted.
    EXPECT_GE(result.backtracks_per_depth.size(), 2u);
}

TEST(ActSolver, ChrSquaredTaskSolvableAtDepthTwo) {
    // L_n for t = n is all of Chr^2 s: wait-free solvable at k = 2 (and
    // not before: corners of s are not adjacent in Chr or Chr^2).
    const tasks::AffineTask ln = tasks::t_resilience_task(1, 1);
    const ActResult result = search_wait_free(ln.task, 3);
    ASSERT_TRUE(result.solvable);
    EXPECT_EQ(result.witness_depth, 2);
}

TEST(ActSolver, TotalOrderNotWaitFreeSolvable) {
    // L_ord embeds leader election: no chromatic carrier-preserving map
    // from any Chr^k of the edge onto the two disjoint end edges.
    const tasks::AffineTask lord = tasks::total_order_task(1);
    const ActResult result = search_wait_free(lord.task, 3);
    EXPECT_FALSE(result.solvable);
    EXPECT_TRUE(result.exhausted_all_depths);
}

TEST(ActSolver, BinaryConsensusTwoProcessesUnsolvable) {
    // FLP for two processes: every depth exhausts without a witness.
    const tasks::Task consensus = tasks::consensus_task(2, 2);
    const ActResult result = search_wait_free(consensus, 3);
    EXPECT_FALSE(result.solvable);
    EXPECT_TRUE(result.exhausted_all_depths);
    EXPECT_EQ(result.backtracks_per_depth.size(), 4u);
}

TEST(ActSolver, SoloConsensusTrivial) {
    // One process decides its own input at depth 0.
    const tasks::Task consensus = tasks::consensus_task(1, 3);
    const ActResult result = search_wait_free(consensus, 1);
    ASSERT_TRUE(result.solvable);
    EXPECT_EQ(result.witness_depth, 0);
    // The witness is the identity on the input vertices.
    for (std::uint32_t v = 0; v < 3; ++v) {
        EXPECT_EQ(result.eta->apply(topo::VertexId{v}), v);
    }
}

TEST(ActSolver, TrivialSetAgreementSolvableAtDepthZero) {
    // (n+1)-set agreement: deciding your own input is a witness at k = 0.
    const tasks::Task trivial = tasks::k_set_agreement_task(2, 3, 2);
    const ActResult result = search_wait_free(trivial, 1);
    ASSERT_TRUE(result.solvable);
    EXPECT_EQ(result.witness_depth, 0);
}

TEST(ActSolver, WitnessIsACorollary71Map) {
    const tasks::AffineTask is = tasks::immediate_snapshot_task(1);
    const ActResult result = search_wait_free(is.task, 2);
    ASSERT_TRUE(result.solvable);
    const ChromaticMapProblem problem = act_problem(is.task, result.domain);
    EXPECT_EQ(check_chromatic_map(problem, *result.eta), "");
}

TEST(ActSolver, InvalidTaskRejected) {
    tasks::Task broken = tasks::consensus_task(2, 2);
    broken.outputs = topo::ChromaticComplex::standard_simplex(0);
    EXPECT_THROW(search_wait_free(broken, 1), precondition_error);
}

}  // namespace
}  // namespace gact::core
