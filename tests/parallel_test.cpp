// exec::for_index exception semantics, pinned (exec/for_index.h): one
// recorded exception per worker, lowest-worker-index rethrow after the
// join, stop-flag cancellation of unclaimed units, and the inline
// (sequential) path's exact prefix behavior, and the loop slot a
// two-argument callable is given. These used to be
// accidental properties; the header now documents them and this file
// keeps them true.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>

#include "exec/for_index.h"
#include "exec/scheduler.h"

namespace gact {
namespace {

TEST(ParallelForIndex, RunsEveryIndexExactlyOnce) {
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    exec::for_index(exec::Scheduler::shared(), kN, 4, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelForIndex, SlotsAreInRangeAndRunOneUnitAtATime) {
    // A callable taking (i, slot) learns its loop slot: always below
    // for_index_slots, 0 on the inline path, and never running two units
    // at once — what lets a caller keep per-slot scratch state.
    constexpr std::size_t kN = 2000;
    EXPECT_EQ(exec::for_index_slots(kN, 1), 1u);
    EXPECT_EQ(exec::for_index_slots(1, 4), 1u);
    EXPECT_EQ(exec::for_index_slots(3, 8), 3u);
    const unsigned slots = exec::for_index_slots(kN, 4);
    ASSERT_EQ(slots, 4u);
    std::vector<std::atomic<int>> busy(slots);
    for (auto& b : busy) b.store(0);
    std::atomic<bool> overlap{false};
    std::atomic<bool> out_of_range{false};
    exec::for_index(exec::Scheduler::shared(), kN, 4,
                    [&](std::size_t, unsigned slot) {
        if (slot >= slots) {
            out_of_range.store(true);
            return;
        }
        if (busy[slot].fetch_add(1) != 0) overlap.store(true);
        busy[slot].fetch_sub(1);
    });
    EXPECT_FALSE(out_of_range.load());
    EXPECT_FALSE(overlap.load());

    std::set<unsigned> inline_slots;
    exec::for_index(exec::Scheduler::shared(), 10, 1,
                    [&](std::size_t, unsigned slot) {
        inline_slots.insert(slot);
    });
    EXPECT_EQ(inline_slots, std::set<unsigned>{0});
}

TEST(ParallelForIndex, SequentialPathStopsAtTheThrowingIndex) {
    // num_threads <= 1 is the inline loop: indices before the throw ran,
    // none after (the deterministic degenerate case of the cancellation
    // contract).
    std::vector<int> ran;
    EXPECT_THROW(
        exec::for_index(exec::Scheduler::shared(), 10, 1,
                        [&](std::size_t i) {
                            if (i == 3) {
                                throw std::runtime_error("unit 3");
                            }
                            ran.push_back(static_cast<int>(i));
                        }),
        std::runtime_error);
    EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
}

TEST(ParallelForIndex, PropagatesExactlyOneOfTheThrownExceptions) {
    // Every unit throws, tagged by its index. Exactly one exception may
    // propagate (multiple concurrent throws must not terminate), it
    // must be one of the thrown tags, and the stop flag must have
    // cancelled most of the range: with 4 workers each recording at
    // most one exception before refusing new units, far fewer than n
    // units can ever have started.
    constexpr std::size_t kN = 10000;
    std::atomic<std::size_t> started{0};
    std::string tag;
    try {
        exec::for_index(exec::Scheduler::shared(), kN, 4, [&](std::size_t i) {
            started.fetch_add(1, std::memory_order_relaxed);
            throw std::runtime_error(std::to_string(i));
        });
        FAIL() << "an exception must propagate";
    } catch (const std::runtime_error& e) {
        tag = e.what();
    }
    const std::size_t thrown_index = std::stoul(tag);
    EXPECT_LT(thrown_index, kN);
    // At most one claimed unit per worker after the first throw is
    // visible; allow generous scheduling slack, but the cancellation
    // must be wildly better than "ran everything".
    EXPECT_LE(started.load(), 64u);
}

TEST(ParallelForIndex, MultiThrowRethrowsTheLowestWorkersException) {
    // Force EVERY worker to throw by blocking them all at a rendezvous
    // until each has claimed a unit, then releasing them into the
    // throw. Each records its own exception; the documented contract is
    // that the join-time scan rethrows the lowest-numbered worker's
    // slot. Worker indices are not observable from outside, but with
    // all four slots filled the propagated exception must be one of the
    // four claimed units' tags — and repeated runs must always
    // propagate exactly one (never std::terminate, never zero).
    constexpr unsigned kWorkers = 4;
    exec::Scheduler& pool = exec::Scheduler::shared();
    for (int round = 0; round < 8; ++round) {
        std::atomic<unsigned> arrived{0};
        std::set<std::string> claimed_tags;
        std::mutex tags_mutex;
        std::string tag;
        try {
            exec::for_index(pool, kWorkers, kWorkers, [&](std::size_t i) {
                {
                    const std::lock_guard<std::mutex> lock(tags_mutex);
                    claimed_tags.insert(std::to_string(i));
                }
                arrived.fetch_add(1, std::memory_order_relaxed);
                // Rendezvous: nobody throws until everyone holds a
                // unit, so all workers throw and all slots fill.
                while (arrived.load(std::memory_order_relaxed) <
                       kWorkers) {
                }
                throw std::runtime_error(std::to_string(i));
            });
            FAIL() << "an exception must propagate";
        } catch (const std::runtime_error& e) {
            tag = e.what();
        }
        EXPECT_EQ(claimed_tags.size(), kWorkers);
        EXPECT_TRUE(claimed_tags.count(tag) == 1)
            << "propagated '" << tag << "' was never thrown";
    }
}

}  // namespace
}  // namespace gact
