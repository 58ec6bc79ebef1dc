#include "engine/engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "core/lt_pipeline.h"
#include "engine/general_route.h"
#include "engine/report_json.h"
#include "engine/scenario_registry.h"
#include "exec/cancel.h"
#include "tasks/standard_tasks.h"

namespace gact::engine {
namespace {

const Engine& engine() {
    static const Engine e;
    return e;
}

Scenario registry_scenario(const std::string& name) {
    const auto s = ScenarioRegistry::standard().find(name);
    EXPECT_TRUE(s.has_value()) << "unknown registry scenario " << name;
    return *s;
}

/// Field-by-field report equality (witnesses compared as vertex maps).
void expect_same_report(const SolveReport& a, const SolveReport& b) {
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_EQ(a.witness_depth, b.witness_depth);
    EXPECT_EQ(a.total_backtracks, b.total_backtracks);
    EXPECT_EQ(a.backtracks_per_depth, b.backtracks_per_depth);
    ASSERT_EQ(a.witness.has_value(), b.witness.has_value());
    if (a.witness.has_value()) {
        EXPECT_EQ(a.witness->vertex_map(), b.witness->vertex_map());
    }
    EXPECT_EQ(a.model_runs.size(), b.model_runs.size());
    ASSERT_EQ(a.admissibility.has_value(), b.admissibility.has_value());
    if (a.admissibility.has_value()) {
        EXPECT_EQ(a.admissibility->admissible, b.admissibility->admissible);
        EXPECT_EQ(a.admissibility->runs_checked,
                  b.admissibility->runs_checked);
        EXPECT_EQ(a.admissibility->max_landing_round,
                  b.admissibility->max_landing_round);
    }
}

// --- (i) wait-free scenarios reproduce run_act_search bit for bit -------

TEST(Engine, WaitFreeReproducesActSearchBitForBit) {
    for (const char* name : {"is-2-wf", "chr2-2p-wf", "consensus-2-wf"}) {
        const Scenario scenario = registry_scenario(name);
        const SolveReport report = engine().solve(scenario);
        const core::ActResult act =
            core::run_act_search(scenario.task, scenario.options.max_depth,
                                 scenario.options.solver);
        EXPECT_EQ(report.solvable(), act.solvable) << name;
        EXPECT_EQ(report.backtracks_per_depth, act.backtracks_per_depth)
            << name;
        if (act.solvable) {
            EXPECT_EQ(report.witness_depth, act.witness_depth) << name;
            ASSERT_TRUE(report.witness.has_value()) << name;
            EXPECT_EQ(report.witness->vertex_map(), act.eta->vertex_map())
                << name;
        } else {
            EXPECT_EQ(report.verdict,
                      act.exhausted_all_depths ? Verdict::kUnsolvableAtDepth
                                               : Verdict::kBudgetExhausted)
                << name;
        }
    }
}

TEST(Engine, WaitFreeVerdictsAcrossTheRegistry) {
    EXPECT_EQ(engine().solve(registry_scenario("is-1-wf")).verdict,
              Verdict::kSolvable);
    EXPECT_EQ(engine().solve(registry_scenario("ksa-2p-k2-wf")).verdict,
              Verdict::kSolvable);
    EXPECT_EQ(engine().solve(registry_scenario("lord-2p-wf")).verdict,
              Verdict::kUnsolvableAtDepth);
}

// --- (ii) the Res_t route reproduces the L_t witness --------------------

TEST(Engine, ResTRouteReproducesTheGeneralWitness) {
    const SolveReport report =
        engine().solve(registry_scenario("lt-2-1-res1"));
    EXPECT_EQ(report.verdict, Verdict::kSolvable);
    ASSERT_TRUE(report.witness.has_value());
    ASSERT_NE(report.tsub, nullptr);
    EXPECT_EQ(witness_digest_hex(*report.witness), "2804cd4511698afd");

    // The registry scenario is the Section 9.2 construction: the same
    // arguments to build_general_witness give the same T and delta.
    const GeneralWitness direct = build_general_witness(
        tasks::t_resilience_task(2, 1), LtStableRule(2, 1), 2 + 2,
        /*fix_identity=*/true, core::LtGuidance::kRadial,
        core::SolverConfig::fast());
    ASSERT_TRUE(direct.delta.has_value());
    EXPECT_EQ(report.total_backtracks, direct.counters.backtracks);
    EXPECT_EQ(report.witness->vertex_map(), direct.delta->vertex_map());
    EXPECT_EQ(report.tsub->stable_complex().vertex_ids().size(),
              direct.tsub.stable_complex().vertex_ids().size());

    ASSERT_TRUE(report.admissibility.has_value());
    EXPECT_TRUE(report.admissibility->admissible);
    EXPECT_EQ(report.admissibility->runs_checked, report.model_runs.size());
    EXPECT_FALSE(report.model_runs.empty());
}

TEST(Engine, NoStableSimplicesIsBudgetExhausted) {
    // lt_stable_rule is inert below depth 2, so two stages stabilize
    // nothing: the verdict says which knob to raise.
    Scenario scenario = registry_scenario("lt-2-1-res1");
    scenario.options.subdivision_stages = 2;
    const SolveReport report = engine().solve(scenario);
    EXPECT_EQ(report.verdict, Verdict::kBudgetExhausted);
    EXPECT_FALSE(report.witness.has_value());
    EXPECT_NE(report.detail.find("raise subdivision_stages"),
              std::string::npos)
        << report.detail;
}

TEST(Engine, AdversaryPresentationOfRes1Agrees) {
    // The adversary A = {slow sets of size <= 1} is Res_1 by another
    // name: same verdict, same witness, same run family size.
    const SolveReport res = engine().solve(registry_scenario("lt-2-1-res1"));
    const SolveReport adv = engine().solve(registry_scenario("lt-2-1-adv"));
    EXPECT_EQ(adv.verdict, Verdict::kSolvable);
    ASSERT_TRUE(adv.witness.has_value());
    EXPECT_EQ(adv.witness->vertex_map(), res.witness->vertex_map());
    EXPECT_EQ(adv.model_runs.size(), res.model_runs.size());
}

TEST(Engine, ObstructionFreeUniformRouteSolves) {
    const SolveReport report = engine().solve(registry_scenario("is-2-of1"));
    EXPECT_EQ(report.verdict, Verdict::kSolvable) << report.summary();
    // K(T) = Chr s: delta is the identity-fixed approximation, found with
    // no search at all.
    EXPECT_EQ(report.total_backtracks, 0u);
    ASSERT_TRUE(report.admissibility.has_value());
    EXPECT_TRUE(report.admissibility->admissible);

    const SolveReport approx =
        engine().solve(registry_scenario("approx-2-of2"));
    EXPECT_EQ(approx.verdict, Verdict::kSolvable) << approx.summary();
}

TEST(Engine, NonAffineGeneralModelIsUnsupported) {
    const SolveReport report =
        engine().solve(registry_scenario("ksa-3p-k2-res1"));
    EXPECT_EQ(report.verdict, Verdict::kUnsupported);
    EXPECT_NE(report.detail.find("Res_1"), std::string::npos);
}

TEST(Engine, RadialGuidanceDowngradesWithAWarningOffTheN2Base) {
    // RadialProjection is exact for the n = 2 base only; requesting
    // kRadial on an n = 3 affine task must not abort the solve mid-way
    // (the projection's require() used to fire from inside the candidate
    // closure) — the engine downgrades to the default candidate order
    // and records a warning in the report.
    Scenario s = Scenario::general(
        "is-3-of1-radial", tasks::immediate_snapshot_task(3),
        std::make_shared<iis::ObstructionFreeModel>(1),
        std::make_shared<UniformDepthRule>(1));
    s.options.subdivision_stages = 2;
    s.options.guidance = core::LtGuidance::kRadial;
    const SolveReport report = engine().solve(s);
    EXPECT_EQ(report.verdict, Verdict::kSolvable) << report.summary();
    ASSERT_EQ(report.warnings.size(), 1u);
    EXPECT_NE(report.warnings[0].find("radial"), std::string::npos);
    EXPECT_NE(report.warnings[0].find("n = 3"), std::string::npos);
    EXPECT_NE(report.summary().find("warning"), std::string::npos);

    // On the n = 2 base the request is honored: no warning.
    const SolveReport ok = engine().solve(registry_scenario("lt-2-1-res1"));
    EXPECT_TRUE(ok.warnings.empty());
}

// --- (iii) solve_batch == sequential in any shard order -----------------

TEST(Engine, BatchMatchesSequentialInAnyShardOrder) {
    std::vector<Scenario> scenarios;
    for (const char* name : {"is-1-wf", "ksa-2p-k2-wf", "is-2-of1",
                             "ksa-3p-k2-res1", "consensus-2-wf"}) {
        scenarios.push_back(registry_scenario(name));
    }
    const auto sequential = engine().solve_batch(scenarios, 1);
    ASSERT_EQ(sequential.size(), scenarios.size());

    for (const unsigned threads : {2u, 4u, 8u}) {
        const auto sharded = engine().solve_batch(scenarios, threads);
        ASSERT_EQ(sharded.size(), sequential.size()) << threads;
        for (std::size_t i = 0; i < sharded.size(); ++i) {
            expect_same_report(sharded[i], sequential[i]);
        }
    }

    // Reversing the input only permutes the reports.
    const std::vector<Scenario> reversed(scenarios.rbegin(),
                                         scenarios.rend());
    const auto rev = engine().solve_batch(reversed, 3);
    ASSERT_EQ(rev.size(), sequential.size());
    for (std::size_t i = 0; i < rev.size(); ++i) {
        expect_same_report(rev[i], sequential[sequential.size() - 1 - i]);
    }
}

// --- limits: a solve cut short says which limit fired ------------------

TEST(Engine, CallerCancelBeforeTheSolveNamesTheLimitAndTheStagesBuilt) {
    exec::CancelToken token;
    token.cancel();
    Scenario s = registry_scenario("lt-2-1-res1");
    s.options.solver.cancel = &token;
    const std::string stages =
        std::to_string(s.options.subdivision_stages);
    const SolveReport report = engine().solve(s);
    EXPECT_EQ(report.verdict, Verdict::kBudgetExhausted);
    EXPECT_EQ(report.detail,
              "cancelled by the caller after 0 of " + stages +
                  " subdivision stages");
    EXPECT_EQ(report.witness_depth, 0);
    for (const StageTiming& t : report.timings) {
        EXPECT_NE(t.stage, "cancelled");
    }

    // Under a time budget too, the caller's token is the limit that
    // fired; the "cancelled" timing spans the solve and is not added to
    // the total.
    s.options.time_budget_ms = 60'000;
    const SolveReport budgeted = engine().solve(s);
    EXPECT_EQ(budgeted.detail, report.detail);
    ASSERT_FALSE(budgeted.timings.empty());
    EXPECT_EQ(budgeted.timings.back().stage, "cancelled");
    EXPECT_LE(budgeted.total_millis(), budgeted.timings.back().millis);

    Scenario wf = registry_scenario("is-1-wf");
    wf.options.solver.cancel = &token;
    EXPECT_EQ(engine().solve(wf).detail,
              "cancelled by the caller after 0 of " +
                  std::to_string(wf.options.max_depth + 1) +
                  " wait-free depths");
}

TEST(Engine, TimeBudgetCutsTheSolveAndItsTotalStaysWithinTheWallClock) {
    // lt-3-2-res2 runs for hundreds of milliseconds, so a 20 ms budget
    // fires between subdivision stages or in the approximation search.
    Scenario s = registry_scenario("lt-3-2-res2");
    s.options.time_budget_ms = 20;
    const auto start = std::chrono::steady_clock::now();
    const SolveReport report = engine().solve(s);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_EQ(report.verdict, Verdict::kBudgetExhausted) << report.summary();
    EXPECT_EQ(report.detail.rfind("time budget of 20 ms ran out after ", 0),
              0u)
        << report.detail;
    ASSERT_FALSE(report.timings.empty());
    EXPECT_EQ(report.timings.back().stage, "cancelled");
    EXPECT_LE(report.timings.back().millis, wall_ms);
    EXPECT_LE(report.total_millis(), wall_ms);
    EXPECT_NE(report.summary().find(
                  ", " +
                  std::to_string(
                      static_cast<long long>(report.total_millis())) +
                  " ms"),
              std::string::npos)
        << report.summary();
}

// --- registry hygiene ---------------------------------------------------

TEST(Engine, RegistrySpansTheModelFamilies) {
    const auto& specs = ScenarioRegistry::standard().specs();
    EXPECT_GE(specs.size(), 5u);
    EXPECT_FALSE(ScenarioRegistry::standard().find("no-such-scenario"));

    const auto quick = ScenarioRegistry::standard().quick();
    EXPECT_GE(quick.size(), 5u);
    bool wf = false, res = false, of = false, adv = false;
    for (const Scenario& s : quick) {
        ASSERT_NE(s.model, nullptr) << s.name;
        if (s.is_wait_free()) wf = true;
        const std::string model = s.model->name();
        if (model.rfind("Res_", 0) == 0) res = true;
        if (model.rfind("OF_", 0) == 0) of = true;
        if (model.rfind("M_adv", 0) == 0) adv = true;
    }
    EXPECT_TRUE(wf && res && of && adv);
}

TEST(Engine, HeavyScenariosExcludedFromQuick) {
    for (const Scenario& s : ScenarioRegistry::standard().quick()) {
        EXPECT_FALSE(s.heavy) << s.name;
    }
    bool any_heavy = false;
    for (const auto& spec : ScenarioRegistry::standard().specs()) {
        any_heavy = any_heavy || spec.heavy;
    }
    EXPECT_TRUE(any_heavy);
}

}  // namespace
}  // namespace gact::engine
