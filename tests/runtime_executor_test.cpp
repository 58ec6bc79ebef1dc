// The witness executor (runtime/executor.h): canonical view keys,
// TableRule's own-subview descent, the per-round view rows it checks the
// substrate against (oracle: Run::view_table), and end-to-end executions of real
// engine witnesses under handpicked schedules on the SM substrate —
// clean runs must produce zero Definition 4.1 violations, and a
// deliberately corrupted witness must be caught.
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

TEST(CanonicalViewKey, IndependentOfArenaHistory) {
    // The same abstract view must get the same key in a fresh arena and
    // in an arena already polluted by views of an unrelated run — keys
    // order children by owner, never by arena-local id.
    const iis::Run run(
        2,
        {iis::OrderedPartition(
            {ProcessSet::of({1}), ProcessSet::of({0})})},
        {iis::OrderedPartition::concurrent(ProcessSet::full(2))});

    iis::ViewArena fresh;
    const iis::ViewId in_fresh = run.view(0, 2, fresh);

    iis::ViewArena polluted;
    const iis::Run other = iis::Run::forever(
        2, iis::OrderedPartition::concurrent(ProcessSet::full(2)));
    (void)other.view_table(4, polluted);  // shift the id space
    const iis::ViewId in_polluted = run.view(0, 2, polluted);

    EXPECT_NE(in_fresh, in_polluted);  // arena-local ids differ...
    EXPECT_EQ(canonical_view_key(fresh, in_fresh),
              canonical_view_key(polluted, in_polluted));  // ...keys agree
}

TEST(CanonicalViewKey, DistinguishesInputsAndHistories) {
    iis::ViewArena arena;
    const iis::Run run = iis::Run::forever(
        2, iis::OrderedPartition::concurrent(ProcessSet::full(2)));
    const std::vector<std::optional<topo::VertexId>> in_a = {10, 20};
    const std::vector<std::optional<topo::VertexId>> in_b = {11, 20};
    EXPECT_NE(canonical_view_key(arena, run.view(0, 1, arena, &in_a)),
              canonical_view_key(arena, run.view(0, 1, arena, &in_b)));
    // In the sequential run p0 goes first and sees only itself; in the
    // concurrent run it sees both — different histories, different keys.
    const iis::Run seq(
        2,
        {iis::OrderedPartition(
            {ProcessSet::of({0}), ProcessSet::of({1})})},
        {iis::OrderedPartition::concurrent(ProcessSet::full(2))});
    EXPECT_NE(canonical_view_key(arena, run.view(0, 1, arena, &in_a)),
              canonical_view_key(arena, seq.view(0, 1, arena, &in_a)));
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
    rule.insert(canonical_view_key(arena, v1), 77);
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
                auto row = iis::initial_view_row(n, arena, &inputs);
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

}  // namespace
}  // namespace gact::runtime
