// Fork/join over a Scheduler, with the exception contract every caller
// of exec::for_index relies on: one representative failure, the
// LOWEST-submission-index exception rethrown at wait().
//
// Deadlock freedom (nested groups on a bounded pool): wait() does not
// just block — it HELPS, extracting queued tasks of its own group from
// the scheduler's queues and running them inline. So a worker that
// forks an inner group and waits on it makes progress on that group
// itself even when every other worker is busy; waits only ever point
// from a task to the group it created (a forest, no cycles), and leaf
// groups complete by the waiter's own hands if need be. This holds all
// the way down to a 1-worker pool — and even an external (non-worker)
// thread waiting on a group drains that group's overflow tasks itself.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>

#include "exec/scheduler.h"

namespace gact::exec {

/// @brief A join scope for tasks forked onto a Scheduler.
///
/// Not thread-safe to wait() concurrently from two threads; run() may
/// be called from the group's own tasks (nested forks join the same
/// group).
class TaskGroup {
public:
    explicit TaskGroup(Scheduler& scheduler = Scheduler::shared());
    /// Joins outstanding tasks; any task exception a missing wait()
    /// would have rethrown is dropped. Call wait() yourself.
    ~TaskGroup();
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Fork: queue `fn` on the scheduler as part of this group. Its
    /// submission index (0, 1, ...) is its rank in the representative-
    /// failure contract below.
    void run(std::function<void()> fn);

    /// Join: run own-group queued tasks inline while any task is
    /// outstanding, then — once all have finished — rethrow the
    /// exception of the lowest-submission-index task that threw, if
    /// any (deterministic given WHICH tasks threw; deliberately not
    /// "first thrown in time", which is meaningless wall-clock order).
    /// The group is reusable after wait() returns.
    void wait();

private:
    friend class Scheduler;
    /// Task epilogue: record a failure against `index`, retire the
    /// task, wake the waiter on the last one.
    void finished(std::size_t index, std::exception_ptr error);

    static constexpr std::size_t kNoError = static_cast<std::size_t>(-1);

    Scheduler& scheduler_;
    std::mutex mutex_;
    std::condition_variable done_cv_;
    std::size_t pending_ = 0;
    std::size_t next_index_ = 0;
    std::size_t error_index_ = kNoError;
    std::exception_ptr error_;
};

}  // namespace gact::exec
