#include "exec/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "exec/task_group.h"
#include "util/cli.h"

namespace gact::exec {

namespace {

// Which pool (if any) the current thread is a worker of, and its index
// there. Lets enqueue() route forks to the forker's own deque and keeps
// "is this thread a worker?" a pointer compare.
thread_local const Scheduler* tls_scheduler = nullptr;
thread_local unsigned tls_worker = 0;

unsigned default_worker_count() {
    // A value that is not a plain count in 1..kMaxWorkers ("0", "5x",
    // " 6") falls back to the default.
    unsigned n = 0;
    if (util::parse_count(std::getenv("GACT_EXEC_THREADS"), n, 1u,
                          kMaxWorkers)) {
        return n;
    }
    // Floor of 4: exec::for_index callers may rely on a few units
    // genuinely overlapping (tests/parallel_test.cpp rendezvouses 4
    // workers), and small CI machines report 2.
    return std::max(4u, std::thread::hardware_concurrency());
}

std::uint64_t micros_between(std::chrono::steady_clock::time_point a,
                             std::chrono::steady_clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(b - a)
            .count());
}

}  // namespace

Scheduler::Scheduler(unsigned workers) {
    const unsigned n = std::max(1u, workers);
    deques_.resize(n);
    threads_.reserve(n);
    for (unsigned w = 0; w < n; ++w) {
        threads_.emplace_back([this, w] { worker_loop(w); });
    }
}

Scheduler::~Scheduler() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
}

Scheduler& Scheduler::shared() {
    static Scheduler instance(default_worker_count());
    return instance;
}

void Scheduler::submit(std::function<void()> fn) {
    // run_item drops a group-less task's exception — the detached
    // contract in the header.
    enqueue(TaskItem{std::move(fn), nullptr, 0});
}

void Scheduler::enqueue(TaskItem item) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (tls_scheduler == this) {
            deques_[tls_worker].push_back(std::move(item));
        } else {
            overflow_.push_back(std::move(item));
        }
    }
    cv_.notify_one();
}

void Scheduler::run_item(TaskItem& item) {
    const auto start = std::chrono::steady_clock::now();
    std::exception_ptr error;
    try {
        item.fn();
    } catch (...) {
        error = std::current_exception();
    }
    const std::uint64_t micros =
        micros_between(start, std::chrono::steady_clock::now());
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.tasks_executed;
        ++stats_.latency_log2_us[ExecStats::latency_bucket(micros)];
    }
    // Retire with the group only AFTER the counters landed: the waiter
    // may return from wait() the instant the last task retires, and a
    // stats() snapshot taken then must already include it. Detached
    // tasks (no group) drop their exception — the submit() contract.
    if (item.group != nullptr) {
        item.group->finished(item.index, std::move(error));
    }
}

void Scheduler::worker_loop(unsigned self) {
    tls_scheduler = this;
    tls_worker = self;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        TaskItem item;
        bool found = false;
        if (!deques_[self].empty()) {
            // Own deque, newest-first: the cache-hot end, and the end
            // thieves do not touch.
            item = std::move(deques_[self].back());
            deques_[self].pop_back();
            found = true;
        } else if (!overflow_.empty()) {
            item = std::move(overflow_.front());
            overflow_.pop_front();
            ++stats_.tasks_overflow;
            found = true;
        } else {
            // Steal the OLDEST task of the first non-empty peer deque:
            // oldest is the conventional thief's end (the fork most
            // likely to fan out further), and round-robin from self+1
            // spreads thieves across victims.
            const std::size_t n = deques_.size();
            for (std::size_t k = 1; k < n && !found; ++k) {
                std::deque<TaskItem>& victim = deques_[(self + k) % n];
                if (victim.empty()) continue;
                item = std::move(victim.front());
                victim.pop_front();
                ++stats_.tasks_stolen;
                found = true;
            }
        }
        if (found) {
            lock.unlock();
            run_item(item);
            lock.lock();
            continue;
        }
        if (stopping_) return;
        // Every enqueue notifies under the mutex, so a plain wait would
        // do; the timeout is a cheap backstop against reasoning gaps.
        cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
}

bool Scheduler::help_one(TaskGroup* group) {
    const auto extract = [group](std::deque<TaskItem>& queue,
                                 TaskItem& out) {
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            if (it->group != group) continue;
            out = std::move(*it);
            queue.erase(it);
            return true;
        }
        return false;
    };
    TaskItem item;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        bool found = extract(overflow_, item);
        for (std::size_t w = 0; w < deques_.size() && !found; ++w) {
            found = extract(deques_[w], item);
        }
        if (!found) return false;
        ++stats_.tasks_helped;
    }
    run_item(item);
    return true;
}

ExecStats Scheduler::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    ExecStats out = stats_;
    out.workers = threads_.size();
    out.queue_depth = overflow_.size();
    for (const std::deque<TaskItem>& d : deques_) {
        out.queue_depth += d.size();
    }
    return out;
}

}  // namespace gact::exec
