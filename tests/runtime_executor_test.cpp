// The witness executor (runtime/executor.h): TableRule's structural
// lookup and own-subview descent, the per-round view rows it checks the
// substrate against (oracle: Run::view_table), a reused Executor against
// fresh ones, and end-to-end executions of real engine witnesses under
// handpicked schedules on the SM substrate — clean runs must produce zero
// Definition 4.1 violations, and a deliberately corrupted witness must
// be caught.
#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "engine/executable.h"
#include "engine/scenario_registry.h"
#include "util/require.h"

namespace gact::runtime {
namespace {

using engine::Engine;
using engine::Scenario;
using engine::ScenarioRegistry;
using engine::SolveReport;

/// Solve a registry scenario once and cache the report across tests
/// (Engine::solve is deterministic, so the cache changes nothing).
const SolveReport& solved(const std::string& name) {
    static std::map<std::string, SolveReport> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        const auto scenario = ScenarioRegistry::standard().find(name);
        if (!scenario.has_value()) {
            throw std::runtime_error("unknown scenario " + name);
        }
        it = cache.emplace(name, Engine().solve(*scenario)).first;
    }
    return it->second;
}

Scenario find(const std::string& name) {
    const auto s = ScenarioRegistry::standard().find(name);
    if (!s.has_value()) throw std::runtime_error("unknown scenario " + name);
    return *s;
}

/// Inputs/allowed-output plumbing for an inputless task, mirroring the
/// verifier: the participant face is the set of participant ids.
struct InputlessFixture {
    std::vector<std::optional<topo::VertexId>> inputs;
    topo::Simplex face;

    InputlessFixture(const tasks::Task& task, const Schedule& s)
        : inputs(task.num_processes) {
        for (ProcessId p : s.participants().members()) {
            face = face.with(static_cast<topo::VertexId>(p));
        }
    }
};

Schedule concurrent_schedule(std::uint32_t n) {
    Schedule s;
    s.num_processes = n;
    s.cycle = iis::OrderedPartition::concurrent(ProcessSet::full(n));
    return s;
}

TEST(TableRule, LookupIsIndependentOfArenaHistory) {
    // The same abstract view must be found in the rule's table from a
    // fresh arena and from an arena already polluted by views of an
    // unrelated run — the lookup matches structure, never arena-local ids.
    const iis::Run run(
        2,
        {iis::OrderedPartition(
            {ProcessSet::of({1}), ProcessSet::of({0})})},
        {iis::OrderedPartition::concurrent(ProcessSet::full(2))});
    TableRule rule("test", 2);
    rule.insert(run.view(0, 2, rule.arena()), 5);

    iis::ViewArena fresh;
    const iis::ViewId in_fresh = run.view(0, 2, fresh);

    iis::ViewArena polluted;
    const iis::Run other = iis::Run::forever(
        2, iis::OrderedPartition::concurrent(ProcessSet::full(2)));
    (void)other.view_table(4, polluted);  // shift the id space
    const iis::ViewId in_polluted = run.view(0, 2, polluted);

    EXPECT_NE(in_fresh, in_polluted);  // arena-local ids differ...
    EXPECT_EQ(polluted.find_equal(fresh, in_fresh), in_polluted);
    const std::vector<topo::BaryPoint> no_positions;
    EXPECT_EQ(rule.decide(0, 2, in_fresh, fresh, no_positions), 5);
    EXPECT_EQ(rule.decide(0, 2, in_polluted, polluted, no_positions), 5);
}

TEST(TableRule, DistinguishesInputsAndHistories) {
    const iis::Run run = iis::Run::forever(
        2, iis::OrderedPartition::concurrent(ProcessSet::full(2)));
    // In the sequential run p0 goes first and sees only itself; in the
    // concurrent run it sees both — different histories.
    const iis::Run seq(
        2,
        {iis::OrderedPartition(
            {ProcessSet::of({0}), ProcessSet::of({1})})},
        {iis::OrderedPartition::concurrent(ProcessSet::full(2))});
    const std::vector<std::optional<topo::VertexId>> in_a = {10, 20};
    const std::vector<std::optional<topo::VertexId>> in_b = {11, 20};

    TableRule rule("test", 1);
    rule.insert(run.view(0, 1, rule.arena(), &in_a), 1);
    EXPECT_EQ(rule.size(), 1u);

    iis::ViewArena arena;
    const iis::ViewId concurrent_a = run.view(0, 1, arena, &in_a);
    const iis::ViewId concurrent_b = run.view(0, 1, arena, &in_b);
    const iis::ViewId sequential_a = seq.view(0, 1, arena, &in_a);
    const std::vector<topo::BaryPoint> no_positions;
    EXPECT_EQ(rule.decide(0, 1, concurrent_a, arena, no_positions), 1);
    EXPECT_EQ(rule.decide(0, 1, concurrent_b, arena, no_positions),
              std::nullopt);
    EXPECT_EQ(rule.decide(0, 1, sequential_a, arena, no_positions),
              std::nullopt);

    rule.insert(seq.view(0, 1, rule.arena(), &in_a), 2);
    EXPECT_EQ(rule.size(), 2u);
    EXPECT_EQ(rule.decide(0, 1, sequential_a, arena, no_positions), 2);
    EXPECT_EQ(rule.decide(0, 1, concurrent_a, arena, no_positions), 1);
}

TEST(TableRule, DecidesOnlyAtItsDepthViaOwnSubView) {
    // A depth-1 rule keyed on p0's own depth-1 view must abstain at
    // depth 0 and decide the same value at depth 1 and (by descending
    // p0's own sub-view chain) at depth 2.
    iis::ViewArena arena;
    const iis::Run run = iis::Run::forever(
        2, iis::OrderedPartition::concurrent(ProcessSet::full(2)));
    const iis::ViewId v0 = run.view(0, 0, arena);
    const iis::ViewId v1 = run.view(0, 1, arena);
    const iis::ViewId v2 = run.view(0, 2, arena);

    TableRule rule("test", 1);
    rule.insert(run.view(0, 1, rule.arena()), 77);
    EXPECT_THROW(rule.insert(run.view(0, 2, rule.arena()), 78),
                 precondition_error);  // not a depth-1 view
    const std::vector<topo::BaryPoint> no_positions;
    EXPECT_EQ(rule.decide(0, 0, v0, arena, no_positions), std::nullopt);
    EXPECT_EQ(rule.decide(0, 1, v1, arena, no_positions), 77);
    EXPECT_EQ(rule.decide(0, 2, v2, arena, no_positions), 77);
}

TEST(ViewRows, IncrementalRowsEqualViewTableOnEveryDrawnSchedule) {
    // The executor checks each executed round against a view row built
    // from the previous row (iis::next_view_row). Run::view_table stays
    // the oracle: over every schedule the fuzzer draws for three seeds on
    // the quick registry's n = 2 and n = 3 tasks, each row up to past the
    // longest horizon an execution runs must equal the table's row, in
    // one arena, with the task's inputs on its first input facet.
    constexpr std::size_t kDraws = 200;
    constexpr std::size_t kRoundsPastPrefix = 24;
    std::size_t schedules = 0;
    for (const Scenario& scenario : ScenarioRegistry::standard().quick()) {
        const tasks::Task& task = scenario.task;
        const std::uint32_t n = task.num_processes;
        if (n != 2 && n != 3) continue;
        std::vector<std::optional<topo::VertexId>> inputs(n);
        if (!task.is_inputless()) {
            const topo::Simplex omega =
                task.inputs.complex()
                    .simplices_of_dimension(static_cast<int>(n) - 1)
                    .front();
            for (ProcessId p = 0; p < n; ++p) {
                inputs[p] = task.inputs.vertex_with_color(omega, p);
            }
        }
        const ScheduleGenerator gen(n, scenario.model, 3);
        for (std::uint64_t seed : {1, 2, 3}) {
            for (std::size_t i = 0; i < kDraws; ++i) {
                SplitMix64 rng(mix_seed(seed, i));
                const Schedule s = gen.next(rng);
                const iis::Run run = s.to_run();
                const std::size_t horizon = s.prefix.size() + kRoundsPastPrefix;
                iis::ViewArena arena;
                const auto table = run.view_table(horizon, arena, &inputs);
                std::vector<std::optional<iis::ViewId>> row;
                iis::initial_view_row(n, arena, &inputs, row);
                ASSERT_EQ(row, table[0]) << scenario.name << " " << s.to_string();
                std::vector<std::optional<iis::ViewId>> next;
                for (std::size_t k = 1; k <= horizon; ++k) {
                    iis::next_view_row(run.round(k - 1), row, arena, next);
                    row.swap(next);
                    ASSERT_EQ(row, table[k])
                        << scenario.name << " " << s.to_string() << " round "
                        << k;
                }
                ++schedules;
            }
        }
    }
    EXPECT_GT(schedules, 0u);
}

TEST(Executor, WitnessRunsCleanUnderHandpickedSchedules) {
    // An engine witness for the immediate-snapshot task (3 processes),
    // run as an actual protocol under three qualitatively distinct
    // wait-free schedules: failure-free concurrent, fully sequential
    // prefix, and a solo run. check_views cross-checks every substrate
    // view against Run semantics, so zero violations also certifies
    // that run_partition_round realized each partition exactly.
    const Scenario scenario = find("is-2-wf");
    const SolveReport& report = solved("is-2-wf");
    ASSERT_TRUE(report.solvable()) << report.summary();
    const auto rule = engine::make_decision_rule(scenario, report);
    const std::uint32_t n = scenario.task.num_processes;
    ASSERT_EQ(n, 3u);

    std::vector<Schedule> schedules;
    schedules.push_back(concurrent_schedule(n));
    Schedule seq = concurrent_schedule(n);
    seq.prefix = {iis::OrderedPartition({ProcessSet::of({0}),
                                         ProcessSet::of({1}),
                                         ProcessSet::of({2})}),
                  iis::OrderedPartition({ProcessSet::of({2}),
                                         ProcessSet::of({0, 1})})};
    schedules.push_back(seq);
    Schedule solo;
    solo.num_processes = n;
    solo.cycle = iis::OrderedPartition::concurrent(ProcessSet::of({1}));
    schedules.push_back(solo);

    for (const Schedule& s : schedules) {
        const InputlessFixture fx(scenario.task, s);
        ExecutionConfig config;
        config.horizon = 16;
        const ExecutionResult r =
            execute(scenario.task, *rule, s, fx.inputs,
                    scenario.task.delta.at(fx.face), config);
        EXPECT_TRUE(r.violations.empty())
            << s.to_string() << ": " << r.violations.front();
        EXPECT_TRUE(r.all_decided) << s.to_string();
        for (ProcessId p : s.participants().members()) {
            ASSERT_TRUE(r.outputs[p].has_value()) << s.to_string();
            EXPECT_EQ(scenario.task.outputs.color(*r.outputs[p]), p);
        }
        for (ProcessId p = 0; p < n; ++p) {
            if (!s.participants().contains(p)) {
                EXPECT_FALSE(r.outputs[p].has_value());
            }
        }
    }
}

TEST(Executor, GeneralRouteWitnessRunsCleanWithPositions) {
    // The landing rule consumes exact rational positions advanced
    // lazily round by round; the 1-resilient witness (3 processes) must
    // decide every admissible schedule cleanly — here a concurrent
    // start after which p2 crashes and {0,1} run forever (fast set of
    // size n-1, the largest failure Res_1 admits).
    const Scenario scenario = find("lt-2-1-res1");
    const SolveReport& report = solved("lt-2-1-res1");
    ASSERT_TRUE(report.solvable()) << report.summary();
    const auto rule = engine::make_decision_rule(scenario, report);
    EXPECT_TRUE(rule->needs_positions());
    const std::uint32_t n = scenario.task.num_processes;
    ASSERT_EQ(n, 3u);

    Schedule s;
    s.num_processes = n;
    s.prefix = {iis::OrderedPartition::concurrent(ProcessSet::full(n))};
    s.cycle = iis::OrderedPartition::concurrent(ProcessSet::of({0, 1}));
    ASSERT_TRUE(scenario.model->contains(s.to_run()));

    // lt tasks carry inputs: pick an input facet like the fuzzer does.
    const auto facets = scenario.task.inputs.complex().simplices_of_dimension(
        static_cast<int>(n) - 1);
    ASSERT_FALSE(facets.empty());
    std::vector<std::optional<topo::VertexId>> inputs(n);
    topo::Simplex face;
    for (ProcessId p = 0; p < n; ++p) {
        inputs[p] = scenario.task.inputs.vertex_with_color(facets[0], p);
        face = face.with(*inputs[p]);
    }
    ExecutionConfig config;
    config.horizon = scenario.options.max_landing_round + 8;
    const ExecutionResult r = execute(scenario.task, *rule, s, inputs,
                                      scenario.task.delta.at(face), config);
    EXPECT_TRUE(r.violations.empty())
        << s.to_string() << ": " << r.violations.front();
    EXPECT_TRUE(r.all_decided);
}

TEST(Executor, CorruptedWitnessIsFlaggedOnAFixedSchedule) {
    // Flip one entry of the witness to a different output vertex; the
    // executor must report a Definition 4.1 violation on the schedule
    // that reaches that table entry (the failure-free concurrent run,
    // which visits every view of the witness domain across omegas —
    // here we scan schedules until the corruption bites).
    const Scenario scenario = find("is-2-wf");
    SolveReport report = solved("is-2-wf");
    ASSERT_TRUE(report.solvable());
    ASSERT_TRUE(report.witness.has_value());

    // Corrupt every entry whose image can be swapped for a different
    // same-color output vertex: maximally visible, still color-correct,
    // so only the task relation (condition 2) can catch it.
    const auto& outputs = scenario.task.outputs;
    std::size_t flipped = 0;
    core::SimplicialMap corrupted = *report.witness;
    for (const auto& [v, w] : report.witness->vertex_map()) {
        for (topo::VertexId candidate : outputs.vertex_ids()) {
            if (candidate != w && outputs.color(candidate) == outputs.color(w)) {
                corrupted.set(v, candidate);
                ++flipped;
                break;
            }
        }
    }
    ASSERT_GT(flipped, 0u);
    report.witness = corrupted;
    const auto rule = engine::make_decision_rule(scenario, report);

    const Schedule s = concurrent_schedule(scenario.task.num_processes);
    const InputlessFixture fx(scenario.task, s);
    ExecutionConfig config;
    config.horizon = 16;
    const ExecutionResult r =
        execute(scenario.task, *rule, s, fx.inputs,
                scenario.task.delta.at(fx.face), config);
    EXPECT_FALSE(r.violations.empty())
        << "corrupted witness executed cleanly";
}

TEST(Executor, RejectsMismatchedSchedules) {
    const Scenario scenario = find("is-2-wf");
    const SolveReport& report = solved("is-2-wf");
    const auto rule = engine::make_decision_rule(scenario, report);
    const std::uint32_t n = scenario.task.num_processes;
    const Schedule s = concurrent_schedule(n + 1);  // wrong process count
    const std::vector<std::optional<topo::VertexId>> inputs(n);
    EXPECT_THROW(execute(scenario.task, *rule, s, inputs,
                         scenario.task.delta.at(
                             topo::Simplex({0, 1, 2})),
                         ExecutionConfig{}),
                 gact::precondition_error);
}

/// A solved quick-registry witness set up the way runtime::fuzz runs it:
/// its rule, its schedule generator, and the inputs and allowed outputs
/// of each drawn schedule.
struct Campaign {
    Scenario scenario;
    std::unique_ptr<DecisionRule> rule;
    std::unique_ptr<ScheduleGenerator> generator;
    std::vector<topo::Simplex> facets;
    std::size_t base_rounds = 0;

    /// Iteration i of a campaign at `seed`: the schedule and input facet.
    std::pair<Schedule, std::size_t> draw(std::uint64_t seed,
                                          std::size_t i) const {
        SplitMix64 rng(mix_seed(seed, i));
        Schedule s = generator->next(rng);
        const std::size_t omega = facets.empty() ? 0 : rng.below(facets.size());
        return {std::move(s), omega};
    }

    /// Run on `executor`, or on a fresh one when it is null.
    ExecutionResult run(Executor* executor, const Schedule& s,
                        std::size_t omega) const {
        const tasks::Task& task = scenario.task;
        std::vector<std::optional<topo::VertexId>> inputs(task.num_processes);
        topo::Simplex face;
        if (facets.empty()) {
            for (ProcessId p : s.participants().members()) {
                face = face.with(static_cast<topo::VertexId>(p));
            }
        } else {
            for (ProcessId p = 0; p < task.num_processes; ++p) {
                inputs[p] = task.inputs.vertex_with_color(facets[omega], p);
            }
            for (ProcessId p : s.participants().members()) {
                face = face.with(*inputs[p]);
            }
        }
        ExecutionConfig config;
        config.horizon = s.prefix.size() + base_rounds + 8;
        const topo::SimplicialComplex& allowed = task.delta.at(face);
        return executor != nullptr
                   ? executor->run(task, *rule, s, inputs, allowed, config)
                   : execute(task, *rule, s, inputs, allowed, config);
    }
};

/// Every solvable quick-registry scenario on 2 or 3 processes.
const std::vector<Campaign>& quick_campaigns() {
    static const std::vector<Campaign> campaigns = [] {
        std::vector<Campaign> out;
        for (const Scenario& scenario : ScenarioRegistry::standard().quick()) {
            const std::uint32_t n = scenario.task.num_processes;
            if (n != 2 && n != 3) continue;
            const SolveReport& report = solved(scenario.name);
            if (!report.solvable()) continue;
            Campaign c;
            c.scenario = scenario;
            c.rule = engine::make_decision_rule(scenario, report);
            const bool wf = scenario.is_wait_free();
            c.generator = std::make_unique<ScheduleGenerator>(
                n, scenario.model,
                wf ? 3u : std::min(3u, scenario.options.run_prefix_depth));
            if (!scenario.task.is_inputless()) {
                c.facets = scenario.task.inputs.complex()
                               .simplices_of_dimension(static_cast<int>(n) - 1);
            }
            c.base_rounds =
                wf ? static_cast<std::size_t>(report.witness_depth)
                   : scenario.options.max_landing_round;
            out.push_back(std::move(c));
        }
        return out;
    }();
    return campaigns;
}

TEST(ExecutorReuse, EqualsFreshExecutionOnEveryDrawnSchedule) {
    // One Executor per scenario runs every schedule the fuzzer draws for
    // three seeds; each result must equal a fresh execute() of the same
    // schedule — nothing a run leaves in the arena, the boards or the
    // rows may reach the next one.
    constexpr std::size_t kDraws = 200;
    std::size_t table_rules = 0;
    std::size_t landing_rules = 0;
    for (const Campaign& c : quick_campaigns()) {
        (c.rule->needs_positions() ? landing_rules : table_rules) += 1;
        Executor executor;
        for (std::uint64_t seed : {1, 2, 3}) {
            for (std::size_t i = 0; i < kDraws; ++i) {
                const auto [s, omega] = c.draw(seed, i);
                ASSERT_EQ(c.run(&executor, s, omega), c.run(nullptr, s, omega))
                    << c.scenario.name << " seed " << seed << " " << s.to_string();
            }
        }
    }
    EXPECT_GT(table_rules, 0u);
    EXPECT_GT(landing_rules, 0u);
}

/// A rule that throws once its processes reach round 2.
class ThrowingRule final : public DecisionRule {
public:
    std::string name() const override { return "throwing"; }
    bool needs_positions() const override { return false; }
    std::optional<topo::VertexId> decide(
        ProcessId, std::size_t k, iis::ViewId, const iis::ViewArena&,
        const std::vector<topo::BaryPoint>&) const override {
        if (k >= 2) throw std::runtime_error("rule failed at round 2");
        return std::nullopt;
    }
};

TEST(ExecutorReuse, InterleavedRulesAndRunsThatThrew) {
    // One executor for every scenario in turn — table and landing rules,
    // 2 and 3 processes interleaved — with runs that throw in between:
    // a schedule whose support grows (rejected up front) and a rule that
    // throws mid-run (after two rounds ran). Every clean run must still
    // equal a fresh execution.
    constexpr std::size_t kDraws = 60;
    const std::vector<Campaign>& campaigns = quick_campaigns();
    ASSERT_FALSE(campaigns.empty());
    const ThrowingRule throwing;
    const topo::SimplicialComplex nothing_allowed;
    Executor executor;
    for (std::size_t i = 0; i < kDraws; ++i) {
        for (const Campaign& c : campaigns) {
            const tasks::Task& task = c.scenario.task;
            const std::uint32_t n = task.num_processes;
            if (i % 5 == 1) {
                Schedule grows;
                grows.num_processes = n;
                grows.prefix = {
                    iis::OrderedPartition::concurrent(ProcessSet::of({0}))};
                grows.cycle =
                    iis::OrderedPartition::concurrent(ProcessSet::of({0, 1}));
                const std::vector<std::optional<topo::VertexId>> inputs(n);
                EXPECT_THROW(executor.run(task, *c.rule, grows, inputs,
                                          nothing_allowed, ExecutionConfig{}),
                             precondition_error);
            }
            if (i % 5 == 3) {
                const Schedule s = concurrent_schedule(n);
                const std::vector<std::optional<topo::VertexId>> inputs(n);
                EXPECT_THROW(executor.run(task, throwing, s, inputs,
                                          nothing_allowed, ExecutionConfig{}),
                             std::runtime_error);
            }
            const auto [s, omega] = c.draw(7, i);
            ASSERT_EQ(c.run(&executor, s, omega), c.run(nullptr, s, omega))
                << c.scenario.name << " draw " << i << " " << s.to_string();
        }
    }
}

}  // namespace
}  // namespace gact::runtime
