// Cancellation of run enumeration and the model filter
// (iis::enumerate_stabilized_runs, iis::filter_by_model) and the engine
// stage that runs them: a fired token stops both, and a solve cut there
// reports budget-exhausted "in run enumeration".
#include "iis/run_enumeration.h"

#include <gtest/gtest.h>

#include <string>

#include "engine/engine.h"
#include "engine/scenario_registry.h"
#include "exec/cancel.h"

namespace gact {
namespace {

/// A model of every run that cancels `token` the first time it is asked
/// and counts the runs it was asked about.
class CancellingModel final : public iis::Model {
public:
    explicit CancellingModel(exec::CancelToken token)
        : token_(std::move(token)) {}

    bool contains(const iis::Run&) const override {
        token_.cancel();
        ++calls_;
        return true;
    }
    std::string name() const override { return "cancel-on-first-run"; }

    std::size_t calls() const { return calls_; }

private:
    mutable exec::CancelToken token_;
    mutable std::size_t calls_ = 0;
};

TEST(RunEnumerationCancel, PreFiredTokenStopsTheEnumerationAtOnce) {
    exec::CancelToken fired;
    fired.cancel();
    for (std::uint32_t depth : {0u, 1u, 2u}) {
        EXPECT_TRUE(iis::enumerate_stabilized_runs(3, depth, &fired).empty())
            << "depth " << depth;
    }
    // A live token changes nothing.
    const exec::CancelToken live;
    EXPECT_EQ(iis::enumerate_stabilized_runs(3, 2, &live).size(),
              iis::enumerate_stabilized_runs(3, 2).size());
}

TEST(RunEnumerationCancel, PreFiredTokenStopsTheFilterAtOnce) {
    const std::vector<iis::Run> runs = iis::enumerate_stabilized_runs(3, 2);
    ASSERT_GT(runs.size(), 1024u);
    exec::CancelToken fired;
    fired.cancel();
    const CancellingModel model(fired);
    EXPECT_TRUE(iis::filter_by_model(runs, model, &fired).empty());
    EXPECT_EQ(model.calls(), 0u);
}

TEST(RunEnumerationCancel, FilterStopsWithinOneStrideOfTheToken) {
    // The model fires the token on the first run; the filter notices at
    // its next check, 1,024 runs in.
    const std::vector<iis::Run> runs = iis::enumerate_stabilized_runs(3, 2);
    ASSERT_GT(runs.size(), 1024u);
    exec::CancelToken token;
    const CancellingModel model(token);
    EXPECT_EQ(iis::filter_by_model(runs, model, &token).size(), 1024u);
    EXPECT_EQ(model.calls(), 1024u);
}

TEST(RunEnumerationCancel, EngineSolveWithAFiredTokenIsBudgetExhausted) {
    const engine::Engine engine;
    auto scenario = engine::ScenarioRegistry::standard().find("lt-2-1-res1");
    ASSERT_TRUE(scenario.has_value());

    exec::CancelToken fired;
    fired.cancel();
    engine::Scenario before = *scenario;
    before.options.solver.cancel = &fired;
    EXPECT_EQ(engine.solve(before).verdict,
              engine::Verdict::kBudgetExhausted);

    // A token that fires inside the model filter: the witness is found,
    // and the solve stops in run enumeration instead of checking
    // admissibility over a partial run list.
    exec::CancelToken token;
    engine::Scenario during = *scenario;
    during.model = std::make_shared<CancellingModel>(token);
    during.options.solver.cancel = &token;
    const engine::SolveReport report = engine.solve(during);
    EXPECT_EQ(report.verdict, engine::Verdict::kBudgetExhausted);
    EXPECT_TRUE(report.witness.has_value());
    EXPECT_FALSE(report.admissibility.has_value());
    EXPECT_TRUE(report.model_runs.empty());
    const std::string tail = ", in run enumeration";
    ASSERT_GE(report.detail.size(), tail.size()) << report.detail;
    EXPECT_EQ(report.detail.substr(report.detail.size() - tail.size()), tail)
        << report.detail;
}

}  // namespace
}  // namespace gact
