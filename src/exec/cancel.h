// Hierarchical cancellation with deadlines: ONE stop type for every
// layer that used to roll its own — EngineOptions time budgets and the
// solve server's queue-wait deadlines both flow through a CancelToken.
//
// A token is a cheap shared handle (copying shares the underlying
// state). Tokens form a tree: a child created with child_of() observes
// its parent's cancellation and deadline but cancels independently —
// cancelling a sub-task must not cancel the whole solve, while the
// solve's deadline must stop the sub-task. cancelled() is safe to call
// from any thread at any rate: it is one relaxed atomic load per chain
// link, plus one steady_clock read when (and only when) a deadline is
// armed — and an expired deadline is cached into the flag, so the
// clock is consulted at most until the first observation of expiry.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace gact::exec {

/// @brief Shared, hierarchical cancel + deadline flag.
///
/// Memory ordering is relaxed throughout on purpose: the flag is
/// advisory — an observer seeing it late merely runs one more unit of
/// work, the same unit-level uncertainty self-scheduling has anyway —
/// and no data flows through it (results are published by joins and
/// mutexes, exactly as in exec/for_index.h).
class CancelToken {
public:
    /// A fresh root token: not cancelled, no deadline, no parent.
    CancelToken() : state_(std::make_shared<State>()) {}

    /// A child observing `parent`: parent cancellation and deadlines
    /// propagate down; cancelling the child does not touch the parent.
    static CancelToken child_of(const CancelToken& parent) {
        CancelToken child;
        child.state_->parent = parent.state_;
        return child;
    }

    /// Request cancellation of this token (and so of its descendants).
    void cancel() noexcept {
        state_->flag.store(true, std::memory_order_relaxed);
    }

    /// Arm (or tighten) a deadline: cancelled() returns true once the
    /// steady clock passes it. A later deadline never loosens an
    /// earlier one.
    void set_deadline(std::chrono::steady_clock::time_point when) noexcept {
        const std::int64_t ns =
            when.time_since_epoch() / std::chrono::nanoseconds(1);
        std::int64_t prev =
            state_->deadline_ns.load(std::memory_order_relaxed);
        while (prev == 0 || ns < prev) {
            if (state_->deadline_ns.compare_exchange_weak(
                    prev, ns, std::memory_order_relaxed)) {
                return;
            }
        }
    }

    /// Convenience: deadline `budget_ms` milliseconds from now.
    void set_deadline_after_ms(std::size_t budget_ms) noexcept {
        set_deadline(std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(budget_ms));
    }

    /// Has this token — or any ancestor — been cancelled or passed its
    /// deadline?
    bool cancelled() const noexcept {
        std::int64_t now_ns = -1;  // fetched lazily, at most once
        for (const State* s = state_.get(); s != nullptr;
             s = s->parent.get()) {
            if (s->flag.load(std::memory_order_relaxed)) return true;
            const std::int64_t deadline =
                s->deadline_ns.load(std::memory_order_relaxed);
            if (deadline == 0) continue;
            if (now_ns < 0) {
                now_ns = std::chrono::steady_clock::now()
                             .time_since_epoch() /
                         std::chrono::nanoseconds(1);
            }
            if (now_ns >= deadline) {
                // Cache expiry: later calls skip the clock entirely.
                s->flag.store(true, std::memory_order_relaxed);
                return true;
            }
        }
        return false;
    }

private:
    struct State {
        // mutable: cancelled() caches deadline expiry into the flag
        // through the const chain walk.
        mutable std::atomic<bool> flag{false};
        std::atomic<std::int64_t> deadline_ns{0};  // 0 = no deadline
        std::shared_ptr<State> parent;
    };
    std::shared_ptr<State> state_;
};

}  // namespace gact::exec
