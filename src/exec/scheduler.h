// The resident work-stealing scheduler: ONE execution substrate for
// every parallel layer of the library. for_index loop tasks,
// Engine::solve_batch shards, terminating-subdivision facet scans,
// fuzzer iteration batches, and the solve server's request workers all
// run here as tasks, instead of
// each layer spawning and joining its own std::threads per call.
//
// Shape: a fixed pool of worker threads, one deque per worker plus a
// shared overflow queue. A task forked FROM a worker thread lands on
// that worker's own deque (the owner drains it newest-first); a task
// submitted from outside the pool lands on the overflow queue. An idle
// worker takes from its own deque first, then the overflow queue, then
// STEALS the oldest task off another worker's deque — so an imbalanced
// fork (one long task, many short) spreads across the pool instead of
// serializing behind the forker. All queues hang off one mutex: tasks
// here are meaty (whole solves, facet scans, CSP searches), so queue
// traffic is not the hot path, and the coarse lock keeps the
// concurrency story simple enough to be obviously TSan-clean.
//
// Determinism contract: the scheduler orders nothing. Callers that
// need reproducible results write into preallocated per-index slots
// and merge in index order (exec/for_index.h is that pattern, once) —
// which is why every digest golden stays bit-identical across worker
// counts.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/exec_stats.h"

namespace gact::exec {

class TaskGroup;

/// @brief A resident pool of worker threads with per-worker
/// work-stealing deques and a shared overflow queue.
///
/// Construct an explicit instance to own a pool (tests do), or use the
/// process-wide lazy singleton shared() — sized by hardware
/// concurrency with a floor of 4, overridable via GACT_EXEC_THREADS.
class Scheduler {
public:
    /// A pool of `workers` resident threads (floored at 1).
    explicit Scheduler(unsigned workers);
    /// Joins the workers. Queued tasks that never started are dropped:
    /// destroy a scheduler only after every TaskGroup on it has been
    /// waited and every detached submit() has completed.
    ~Scheduler();
    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// The process-wide pool (created on first use, joined at exit).
    static Scheduler& shared();

    unsigned worker_count() const {
        return static_cast<unsigned>(threads_.size());
    }

    /// Fire-and-forget: run `fn` on the pool with no join handle. The
    /// task must not throw — escaped exceptions are swallowed (the
    /// solve server's request tasks build error replies themselves).
    /// For joinable work use a TaskGroup.
    void submit(std::function<void()> fn);

    /// A consistent snapshot of the pool's lifetime counters.
    ExecStats stats() const;

private:
    friend class TaskGroup;

    /// One queued unit: the caller's closure plus the group it joins
    /// (null for detached submit() tasks, whose escaped exceptions are
    /// swallowed) and its submission index within that group. The
    /// group tag is what lets a waiting TaskGroup find and help its
    /// own queued tasks.
    struct TaskItem {
        std::function<void()> fn;
        TaskGroup* group = nullptr;
        std::size_t index = 0;
    };

    /// Queue a task: calling worker's own deque, or overflow when the
    /// caller is not one of this pool's workers.
    void enqueue(TaskItem item);
    /// Extract and run ONE queued task of `group`, from any queue;
    /// false if none is queued (they may all be running already). The
    /// helping half of TaskGroup::wait().
    bool help_one(TaskGroup* group);

    void worker_loop(unsigned self);
    /// Run a dequeued task, account for it (latency histogram +
    /// tasks_executed, under the lock), and only THEN retire it with
    /// its group — so once TaskGroup::wait() returns, the stats
    /// snapshot already includes every task of that group. Must be
    /// called without mutex_ held.
    void run_item(TaskItem& item);

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::deque<TaskItem>> deques_;  // one per worker
    std::deque<TaskItem> overflow_;             // external submissions
    bool stopping_ = false;
    ExecStats stats_;  // counters only; workers/queue_depth set in stats()
    std::vector<std::thread> threads_;
};

}  // namespace gact::exec
