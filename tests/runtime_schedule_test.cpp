// Determinism and admissibility of the runtime's schedule layer
// (runtime/schedule.h): the PRNG, the per-iteration stream seeds, and
// the model-shaped generator the fuzzer draws from.
#include "runtime/schedule.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "engine/scenario_registry.h"

namespace gact::runtime {
namespace {

TEST(SplitMix64, SameSeedSameSequence) {
    SplitMix64 a(0xdeadbeefULL);
    SplitMix64 b(0xdeadbeefULL);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(SplitMix64, ReferenceSequence) {
    // Pinned values of the published SplitMix64 algorithm for seed 0
    // (the same constants the digest layer reuses). A standard-library
    // or platform change must not alter the replayable stream.
    SplitMix64 rng(0);
    EXPECT_EQ(rng.next(), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(rng.next(), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(rng.next(), 0x06c45d188009454fULL);
}

TEST(SplitMix64, BelowStaysInRangeAndCoversSmallBounds) {
    SplitMix64 rng(7);
    std::set<std::size_t> seen;
    for (int i = 0; i < 200; ++i) {
        const std::size_t x = rng.below(5);
        EXPECT_LT(x, 5u);
        seen.insert(x);
    }
    // 200 draws from [0,5) miss a value with probability ~5 * 0.8^200.
    EXPECT_EQ(seen.size(), 5u);
}

TEST(MixSeed, StreamsAreDistinctAndDeterministic) {
    EXPECT_EQ(mix_seed(1, 0), mix_seed(1, 0));
    EXPECT_NE(mix_seed(1, 0), mix_seed(1, 1));
    EXPECT_NE(mix_seed(1, 0), mix_seed(2, 0));
}

TEST(Schedule, RoundIndexingAndParticipants) {
    const ProcessSet both = ProcessSet::full(2);
    Schedule s;
    s.num_processes = 2;
    s.prefix = {iis::OrderedPartition({ProcessSet::of({0}),
                                       ProcessSet::of({1})}),
                iis::OrderedPartition::concurrent(both)};
    s.cycle = iis::OrderedPartition::concurrent(ProcessSet::of({1}));
    EXPECT_EQ(s.participants(), both);
    EXPECT_EQ(s.round(0), s.prefix[0]);
    EXPECT_EQ(s.round(1), s.prefix[1]);
    // Past the prefix every round is the cycle.
    EXPECT_EQ(s.round(2), s.cycle);
    EXPECT_EQ(s.round(17), s.cycle);

    const iis::Run run = s.to_run();
    EXPECT_EQ(run.participants(), both);
    EXPECT_EQ(run.infinite_participants(), ProcessSet::of({1}));
    for (std::size_t k = 0; k < 5; ++k) {
        EXPECT_EQ(run.round(k), s.round(k));
    }
}

TEST(Schedule, ToStringIsAReplayableTrace) {
    Schedule s;
    s.num_processes = 2;
    s.cycle = iis::OrderedPartition::concurrent(ProcessSet::full(2));
    EXPECT_EQ(s.to_string(), "p=- c=({0,1})");
    s.prefix = {iis::OrderedPartition({ProcessSet::of({1}),
                                       ProcessSet::of({0})})};
    EXPECT_EQ(s.to_string(), "p=({1}|{0}) c=({0,1})");
}

TEST(ScheduleGenerator, NullModelAdmitsEveryCycleSupport) {
    const ScheduleGenerator gen(3, nullptr, 2);
    // Wait-free: all 2^3 - 1 nonempty supports are admissible.
    EXPECT_EQ(gen.admissible_cycle_supports().size(), 7u);
}

TEST(ScheduleGenerator, DrawsAreDeterministicPerSeed) {
    const ScheduleGenerator gen(3, nullptr, 3);
    SplitMix64 a(mix_seed(42, 0));
    SplitMix64 b(mix_seed(42, 0));
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(gen.next(a), gen.next(b));
    }
    // A different stream almost surely diverges somewhere in 20 draws.
    SplitMix64 c(mix_seed(42, 1));
    SplitMix64 d(mix_seed(42, 0));
    bool diverged = false;
    for (int i = 0; i < 20 && !diverged; ++i) {
        diverged = !(gen.next(c) == gen.next(d));
    }
    EXPECT_TRUE(diverged);
}

TEST(ScheduleGenerator, PinnedDrawsAtOneSeed) {
    // The replay contract: (seed, iteration) names one schedule on every
    // build. The first 16 draws from one stream are pinned for a
    // wait-free and an obstruction-free model on 3 processes, so a
    // change to the order of the partition lists, or to the sequence of
    // draws, fails here.
    const std::vector<std::string> wait_free = {
        "p=({0}|{1}),({1}|{0}) c=({1}|{0})",
        "p=({1}|{2}|{0}),({1}|{0}|{2}),({1}|{2}|{0}) c=({0}|{1,2})",
        "p=({1}|{2}),({2}|{1}) c=({1}|{2})",
        "p=({2}|{1}),({1}|{2}),({2}|{1}) c=({1}|{2})",
        "p=({1}|{0}|{2}),({2}|{1}),({1}) c=({1})",
        "p=({1}),({1}),({1}) c=({1})",
        "p=({0,2}),({0,2}),({0,2}) c=({2}|{0})",
        "p=- c=({0,2}|{1})",
        "p=({1,2}|{0}) c=({0}|{1}|{2})",
        "p=({2}),({2}) c=({2})",
        "p=- c=({2}|{0}|{1})",
        "p=({1,2}),({1}|{2}) c=({2})",
        "p=({0,2}) c=({0}|{2})",
        "p=({1,2}|{0}),({1,2}|{0}) c=({0,1,2})",
        "p=({2}|{0}),({0}) c=({0})",
        "p=- c=({1,2})",
    };
    const std::vector<std::string> obstruction_free = {
        "p=({0}|{2}),({2}|{0}) c=({2}|{0})",
        "p=({0}|{1}),({0}|{1}),({0}) c=({0})",
        "p=({2}|{0}|{1}),({1}),({1}) c=({1})",
        "p=({0}|{1}) c=({1})",
        "p=({2}|{1}),({1}|{2}) c=({2})",
        "p=({1}|{2}) c=({1,2})",
        "p=- c=({1,2})",
        "p=({1}|{2}|{0}),({0,2}|{1}) c=({1,2})",
        "p=- c=({1})",
        "p=({1}),({1}) c=({1})",
        "p=- c=({1}|{0})",
        "p=({1}|{2}),({1,2}) c=({1,2})",
        "p=({1,2}) c=({2})",
        "p=({0}),({0}) c=({0})",
        "p=- c=({0})",
        "p=({0}|{2}),({0}) c=({0})",
    };
    const ScheduleGenerator wf(3, nullptr, 3);
    const ScheduleGenerator of(
        3, std::make_shared<iis::ObstructionFreeModel>(2), 3);
    SplitMix64 wf_rng(mix_seed(28, 0));
    SplitMix64 of_rng(mix_seed(28, 0));
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(wf.next(wf_rng).to_string(), wait_free[i]) << "draw " << i;
        EXPECT_EQ(of.next(of_rng).to_string(), obstruction_free[i])
            << "draw " << i;
    }
}

TEST(ScheduleGenerator, EveryDrawIsAdmissibleForEachRegistryModel) {
    // The generator's whole contract: for every model family in the
    // registry, each drawn schedule's eventually-periodic run satisfies
    // Model::contains — the same predicate the engine's admissibility
    // stage uses.
    const auto& registry = engine::ScenarioRegistry::standard();
    for (const char* name :
         {"lt-2-1-res1", "lt-2-1-adv", "is-2-of1", "approx-2-of2"}) {
        const auto scenario = registry.find(name);
        ASSERT_TRUE(scenario.has_value()) << name;
        ASSERT_NE(scenario->model, nullptr) << name;
        const ScheduleGenerator gen(scenario->task.num_processes,
                                    scenario->model, 3);
        EXPECT_FALSE(gen.admissible_cycle_supports().empty()) << name;
        for (const ProcessSet& support : gen.admissible_cycle_supports()) {
            EXPECT_TRUE(scenario->model->contains(iis::Run::forever(
                scenario->task.num_processes,
                iis::OrderedPartition::concurrent(support))))
                << name << " support " << support.to_string();
        }
        SplitMix64 rng(mix_seed(3, 14));
        for (int i = 0; i < 50; ++i) {
            const Schedule s = gen.next(rng);
            EXPECT_TRUE(scenario->model->contains(s.to_run()))
                << name << " drew off-model schedule " << s.to_string();
            EXPECT_LE(s.prefix.size(), 3u) << name;
        }
    }
}

TEST(ScheduleGenerator, WaitFreeDrawsCoverSoloAndFullCycles) {
    // Shape check on the wait-free family: over many draws both a
    // singleton cycle support (a solo run) and the full support (the
    // failure-free run) must appear — the generator does not collapse
    // onto one corner of the model.
    const ScheduleGenerator gen(2, nullptr, 2);
    SplitMix64 rng(mix_seed(9, 9));
    bool saw_solo = false;
    bool saw_full = false;
    for (int i = 0; i < 200; ++i) {
        const Schedule s = gen.next(rng);
        if (s.cycle.support().size() == 1) saw_solo = true;
        if (s.cycle.support() == ProcessSet::full(2)) saw_full = true;
    }
    EXPECT_TRUE(saw_solo);
    EXPECT_TRUE(saw_full);
}

}  // namespace
}  // namespace gact::runtime
