// The heavy-scenario gate: the sharded lt-3-2-res2 run, timed, with the
// shape of its terminating subdivision pinned, and its stages held
// against the former stabilization pass and its stable_since stamps
// against the map-based stamping they replaced. Beside it, two more
// wall-clock gates: the link check of L_2 at n = 3, and a time budget
// cutting an lt-3-2-res2 solve in its run enumeration or admissibility.
//
// This test is labeled `heavy` in CTest and self-skips unless
// GACT_RUN_HEAVY=1, so the tier-1 suite stays fast while CI (and anyone
// locally) can gate the n = 3 pipeline explicitly:
//
//   GACT_RUN_HEAVY=1 ctest -L heavy --output-on-failure
//
// The budget (default 60 s, override with GACT_HEAVY_BUDGET_SECONDS)
// is deliberately far above the measured time — ~0.4 s for the solve
// on a 4-vCPU x86-64 host (gcc, RelWithDebInfo) — so the gate catches
// order-of-magnitude regressions, not host noise. The subdivision counts
// are exact: a change of representation that alters any stage complex
// fails them however fast it runs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>

#include "core/terminating_subdivision.h"
#include "engine/engine.h"
#include "engine/scenario_registry.h"
#include "tasks/standard_tasks.h"
#include "topology/connectivity.h"
#include "stabilization_oracle.h"
#include "stable_since_oracle.h"

namespace gact::engine {
namespace {

TEST(HeavyScenarios, ShardedLt32Res2StaysUnderTheWallClockBudget) {
    const char* run = std::getenv("GACT_RUN_HEAVY");
    if (run == nullptr || std::string(run) == "0") {
        GTEST_SKIP() << "set GACT_RUN_HEAVY=1 to run the heavy gate";
    }
    double budget_seconds = 60.0;
    if (const char* b = std::getenv("GACT_HEAVY_BUDGET_SECONDS")) {
        budget_seconds = std::strtod(b, nullptr);
    }

    const auto scenario = ScenarioRegistry::standard().find("lt-3-2-res2");
    ASSERT_TRUE(scenario.has_value());
    EXPECT_TRUE(scenario->heavy);
    // The registry ships the scenario sharded; that is what this gate
    // times.
    EXPECT_GT(scenario->options.shard_threads, 1u);

    const auto start = std::chrono::steady_clock::now();
    const SolveReport report = Engine().solve(*scenario);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    // The current truth at 4 subdivision stages: the search exhausts
    // without an approximation (a finer T might carry one), after the
    // engine downgrades the deliberately-requested radial guidance.
    EXPECT_EQ(report.verdict, Verdict::kUnsolvableAtDepth)
        << report.summary();
    ASSERT_EQ(report.warnings.size(), 1u);
    EXPECT_NE(report.warnings[0].find("radial"), std::string::npos);

    // The search's effort and the subdivision's shape, not only the wall
    // time: a change to the CSP set-up that alters any domain or order,
    // or a representation change that alters any complex, shows up in
    // these counts.
    EXPECT_EQ(report.total_backtracks, 26u);
    EXPECT_EQ(report.counters.nogoods_recorded, 26u);
    EXPECT_EQ(report.counters.nogood_prunings, 3u);
    ASSERT_NE(report.tsub, nullptr);
    const core::TerminatingSubdivision& tsub = *report.tsub;
    ASSERT_EQ(tsub.stages(), 5u);
    EXPECT_EQ(tsub.stable_complex().complex().size(), 148407u);
    const topo::SimplicialComplex& last =
        tsub.complex_at(tsub.stages() - 1).complex().complex();
    EXPECT_EQ(last.simplices_of_dimension(0).size(), 92128u);
    EXPECT_EQ(last.simplices_of_dimension(last.dimension()).size(), 478825u);

    EXPECT_LT(elapsed, budget_seconds)
        << "sharded lt-3-2-res2 took " << elapsed
        << " s; budget " << budget_seconds << " s — " << report.summary();
}

// The one-pass stabilization against the former pass (every Sigma_k
// slot for slot, the global vertex order, K(T)'s order and stamps), and
// the flat stable_since stamps against the map-based stamping they
// replaced, on the heavy scenario's own construction (its input complex,
// rule and stage count), built at 1 and at 4 threads.
TEST(HeavyScenarios, StabilizationMatchesTheOraclesOnLt32Res2) {
    const char* run = std::getenv("GACT_RUN_HEAVY");
    if (run == nullptr || std::string(run) == "0") {
        GTEST_SKIP() << "set GACT_RUN_HEAVY=1 to run the heavy comparison";
    }
    const auto scenario = ScenarioRegistry::standard().find("lt-3-2-res2");
    ASSERT_TRUE(scenario.has_value());
    ASSERT_TRUE(scenario->affine.has_value());
    const StableRule& rule = *scenario->options.stable_rule;
    const core::StabilizeFn stabilize = [&rule](
                                            const core::SubdividedComplex& cx,
                                            const topo::Simplex& s) {
        return rule.stable(cx, s);
    };
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        core::TerminatingSubdivision tsub(scenario->affine->task.inputs);
        core::ReferenceStabilization ref;
        for (std::size_t i = 0; i < scenario->options.subdivision_stages;
             ++i) {
            ref.step(tsub, stabilize);
            tsub.advance(stabilize, threads);
        }
        ASSERT_EQ(tsub.stages(), 5u);
        EXPECT_EQ(tsub.stable_complex().complex().size(), 148407u);
        core::expect_matches_reference(tsub, ref);
        core::expect_stamps_match_map_oracle(tsub);
    }
}

// The link check of Definition 8.3 on L_2 (n = 3), 23,279 simplices:
// each link is read off a star, so the check is bound by the links'
// homology (51.6 s when every link was a scan of L).
TEST(HeavyScenarios, LinkCheckOfL2AtNThreeStaysUnderTwoSeconds) {
    const char* run = std::getenv("GACT_RUN_HEAVY");
    if (run == nullptr || std::string(run) == "0") {
        GTEST_SKIP() << "set GACT_RUN_HEAVY=1 to run the heavy link check";
    }
    const tasks::AffineTask l2 = tasks::t_resilience_task(3, 2);
    const auto start = std::chrono::steady_clock::now();
    const topo::LinkConnectivityReport report =
        topo::check_link_connected(l2.l_complex);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_TRUE(report.link_connected) << report.to_string();
    EXPECT_LT(elapsed, 2.0) << "link check took " << elapsed << " s";
}

// A time budget bounds the admissibility stage too: with 3 stages every
// K(T) vertex is identity-fixed and the CSP is immediate, but the runs
// of prefix depth 2 (962,381 before the model filter) took ~68 s to
// check when the stage ignored the token.
TEST(HeavyScenarios, TimeBudgetCutsLt32Res2InRunsOrAdmissibility) {
    const char* run = std::getenv("GACT_RUN_HEAVY");
    if (run == nullptr || std::string(run) == "0") {
        GTEST_SKIP() << "set GACT_RUN_HEAVY=1 to run the budgeted solve";
    }
    auto scenario = ScenarioRegistry::standard().find("lt-3-2-res2");
    ASSERT_TRUE(scenario.has_value());
    scenario->options.subdivision_stages = 3;
    scenario->options.run_prefix_depth = 2;
    scenario->options.time_budget_ms = 500;

    const auto start = std::chrono::steady_clock::now();
    const SolveReport report = Engine().solve(*scenario);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_LT(elapsed, 5.0) << report.summary();
    EXPECT_EQ(report.verdict, Verdict::kBudgetExhausted)
        << report.summary();
    const std::string prefix =
        "time budget of 500 ms ran out after 3 of 3 subdivision stages, in ";
    ASSERT_EQ(report.detail.rfind(prefix, 0), 0u) << report.detail;
    const std::string stage = report.detail.substr(prefix.size());
    EXPECT_TRUE(stage == "run enumeration" ||
                stage.rfind("admissibility after ", 0) == 0)
        << report.detail;
}

}  // namespace
}  // namespace gact::engine
