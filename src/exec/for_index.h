// The library's parallel-for shape — N independent work units pulled
// off an atomic counter by a bounded set of loop tasks — expressed as
// ONE TaskGroup fork/join on the resident scheduler, instead of a
// fresh std::thread spawn-and-join per call.
//
// Semantics are pinned by tests/parallel_test.cpp and byte-compatible
// with the old spawn path:
//  * max_parallelism <= 1 (or n < 2): the loop runs INLINE, on the
//    calling thread, untouched by the scheduler.
//  * otherwise min(max_parallelism, n) loop tasks self-schedule over a
//    relaxed atomic index — long units overlap short ones — and at
//    most `max_parallelism` units ever run concurrently, however many
//    workers the pool has.
//  * exceptions: each loop task records at most ONE exception — its
//    first — and raises an advisory stop flag; claimed units may
//    finish, unclaimed units never start, and after the join the
//    LOWEST-slot exception is rethrown as the one representative
//    failure.
//  * determinism: the scheduler orders nothing — callers write into
//    preallocated per-index slots and merge in index order, exactly as
//    before.
//  * loop slots: a callable taking (i, slot) also learns which loop task
//    runs unit i — a number below for_index_slots(n, max_parallelism),
//    0 on the inline path. One slot runs one unit at a time, so a caller
//    can keep per-slot scratch state and reuse it across units.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <type_traits>
#include <vector>

#include "exec/task_group.h"

namespace gact::exec {

/// The number of loop slots for_index(…, n, max_parallelism, …) uses.
inline unsigned for_index_slots(std::size_t n, unsigned max_parallelism) {
    if (max_parallelism <= 1 || n < 2) return 1;
    return static_cast<unsigned>(std::min<std::size_t>(max_parallelism, n));
}

/// Run `fn(i)` — or `fn(i, slot)` — for every i in [0, n) on
/// `scheduler`, at most `max_parallelism` units in flight. `fn` must be
/// safe to call concurrently on distinct indices. Everything `fn` wrote
/// is published to the caller when this returns (the group join
/// synchronizes, as the thread join used to).
template <typename Fn>
void for_index(Scheduler& scheduler, std::size_t n,
               unsigned max_parallelism, Fn&& fn) {
    const auto call = [&fn](std::size_t i, unsigned slot) {
        if constexpr (std::is_invocable_v<Fn&, std::size_t, unsigned>) {
            fn(i, slot);
        } else {
            (void)slot;
            fn(i);
        }
    };
    const unsigned slots = for_index_slots(n, max_parallelism);
    if (slots == 1) {
        for (std::size_t i = 0; i < n; ++i) call(i, 0);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::vector<std::exception_ptr> errors(slots);
    TaskGroup group(scheduler);
    for (unsigned w = 0; w < slots; ++w) {
        group.run([&errors, &next, &stop, &call, n, w] {
            try {
                while (!stop.load(std::memory_order_relaxed)) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= n) break;
                    call(i, w);
                }
            } catch (...) {
                // One slot per loop task: a task that threw stops
                // pulling units, so this assignment happens at most
                // once per slot.
                errors[w] = std::current_exception();
                stop.store(true, std::memory_order_relaxed);
            }
        });
    }
    group.wait();  // loop tasks never throw; nothing to catch here
    for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
    }
}

}  // namespace gact::exec
