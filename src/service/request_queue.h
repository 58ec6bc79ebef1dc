// The server's bounded admission queue.
//
// Connection threads try_push() solve jobs; worker threads pop() them —
// the same self-scheduling shape as exec/for_index.h's loop tasks
// (workers pull the next unit as they free up, so long solves overlap
// short ones), but over an open-ended stream of requests instead of a
// fixed index range, which is why this is a condvar queue rather than
// an atomic counter. The bound is the backpressure contract: a full
// queue fails the push immediately (the connection replies "queue-full"
// to its client) instead of buffering unbounded work the server has
// already lost the race to finish.
//
// close() is the graceful-drain half: pushes start failing, pops keep
// draining whatever was admitted, and once empty every blocked pop
// returns false — exactly the order shutdown wants (finish admitted
// work, then let the workers exit).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace gact::service {

template <typename T>
class RequestQueue {
public:
    explicit RequestQueue(std::size_t capacity) : capacity_(capacity) {}

    /// Admit one job. Fails (without blocking) when the queue is at
    /// capacity or closed — the caller turns that into a backpressure
    /// or shutting-down reply.
    bool try_push(T job) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (closed_ || jobs_.size() >= capacity_) return false;
            jobs_.push_back(std::move(job));
        }
        ready_.notify_one();
        return true;
    }

    /// Take the next job, blocking while the queue is open and empty.
    /// Returns false only when the queue is closed AND drained.
    bool pop(T& out) {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [&] { return closed_ || !jobs_.empty(); });
        if (jobs_.empty()) return false;
        out = std::move(jobs_.front());
        jobs_.pop_front();
        return true;
    }

    /// Stop admitting; wake every blocked pop. Idempotent.
    void close() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        ready_.notify_all();
    }

    std::size_t depth() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return jobs_.size();
    }

    std::size_t capacity() const noexcept { return capacity_; }

private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<T> jobs_;
    bool closed_ = false;
};

}  // namespace gact::service
