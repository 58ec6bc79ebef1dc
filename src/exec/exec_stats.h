// Observability counters of one exec::Scheduler: how much work ran,
// how it was acquired (own deque, overflow queue, steal, helping
// waiter), how deep the queues are right now, and a log2 latency
// histogram of task run times. A snapshot, not a live view: counters
// are copied under the scheduler lock, so the fields are mutually
// consistent at the moment of the stats() call.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace gact::exec {

/// @brief Lifetime counters of a Scheduler, snapshot by
/// Scheduler::stats(). Served in the solve server's `stats` reply and
/// printed by `gact sweep --stats`.
struct ExecStats {
    /// Resident worker threads of the pool.
    std::size_t workers = 0;
    /// Tasks run to completion — by workers and helping waiters alike
    /// (the three source counters below partition the non-own-deque
    /// part of this total).
    std::size_t tasks_executed = 0;
    /// Tasks a worker took from ANOTHER worker's deque (the imbalance
    /// signal: zero means every worker only ever drained its own forks).
    std::size_t tasks_stolen = 0;
    /// Tasks taken from the shared overflow queue (external
    /// submissions: non-worker threads and detached submit()).
    std::size_t tasks_overflow = 0;
    /// Tasks a TaskGroup::wait() caller ran inline while waiting for
    /// its own group (the deadlock-freedom mechanism; see task_group.h).
    std::size_t tasks_helped = 0;
    /// Queued-but-not-started tasks at snapshot time, across every
    /// deque and the overflow queue.
    std::size_t queue_depth = 0;

    /// Per-task wall-time histogram: bucket b counts tasks that ran
    /// for [2^b, 2^(b+1)) microseconds (bucket 0 also holds sub-1us
    /// tasks; the last bucket is open-ended, ~8.4s and up).
    static constexpr std::size_t kLatencyBuckets = 24;
    std::array<std::size_t, kLatencyBuckets> latency_log2_us{};

    /// Bucket index for a task that ran `micros` microseconds.
    static std::size_t latency_bucket(std::uint64_t micros) {
        std::size_t b = 0;
        while (micros > 1 && b + 1 < kLatencyBuckets) {
            micros >>= 1;
            ++b;
        }
        return b;
    }

    /// Total histogram mass (== tasks_executed unless tasks are mid
    /// flight, since both are bumped together under the lock).
    std::size_t latency_total() const {
        std::size_t total = 0;
        for (std::size_t count : latency_log2_us) total += count;
        return total;
    }
};

}  // namespace gact::exec
