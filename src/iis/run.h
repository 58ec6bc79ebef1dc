// IIS runs (paper, Section 2.1), represented finitely.
//
// A run is an infinite sequence of ordered partitions S_1 ⊇ S_2 ⊇ ... .
// This library represents the eventually-periodic runs: a finite prefix of
// rounds followed by a cycle repeated forever. All models studied in the
// paper (wait-free, t-resilient, k-obstruction-free, adversaries) are
// determined by the fast set, which is computable exactly from this
// representation; arbitrary runs are approximated by the compact families
// M_{D,K} of DESIGN.md, mirroring the paper's own compactness device.
//
// Key notions implemented here:
//  * participating / infinitely participating processes,
//  * the extension partial order r <= r' (Section 2.1) — decided via
//    round-by-round snapshot equality of r's participants, the witness the
//    paper's view-equality condition reduces to for runs built from
//    schedules,
//  * minimal(r): the smallest run r0 <= r, computed by a backward closure
//    over the rounds (see minimal() below),
//  * fast(r) = ∞-part(minimal(r)) and slow(r) = complement,
//  * views (hash-consed) and the run metric d(r, r') = 1/(1+k).
#pragma once

#include <optional>
#include <span>

#include "iis/ordered_partition.h"
#include "iis/view.h"
#include "util/rational.h"

namespace gact::iis {

/// An eventually-periodic IIS run on processes {0, .., num_processes-1}.
class Run {
public:
    /// prefix rounds 1..|prefix|, then `cycle` repeated forever.
    /// Requirements: cycle non-empty; supports weakly decreasing along
    /// prefix + one unrolling of cycle; all cycle rounds have the same
    /// support (forced by decrease + periodicity).
    Run(std::uint32_t num_processes, std::vector<OrderedPartition> prefix,
        std::vector<OrderedPartition> cycle);

    /// The run in which `support` runs forever with the given partition.
    static Run forever(std::uint32_t num_processes, OrderedPartition round);

    std::uint32_t num_processes() const noexcept { return num_processes_; }
    const std::vector<OrderedPartition>& prefix() const noexcept {
        return prefix_;
    }
    const std::vector<OrderedPartition>& cycle() const noexcept {
        return cycle_;
    }

    /// Round k of the run, 0-indexed (round 0 is the paper's S_1).
    const OrderedPartition& round(std::size_t k) const;

    /// part(r): processes taking at least one step (support of round 0).
    ProcessSet participants() const { return round(0).support(); }

    /// ∞-part(r): processes in every round (the cycle support).
    ProcessSet infinite_participants() const { return cycle_[0].support(); }

    /// A horizon H such that two runs agreeing on rounds 0..H-1 agree
    /// everywhere (by eventual periodicity), for this run against `other`.
    std::size_t decision_horizon(const Run& other) const;

    /// Exact equality as infinite sequences.
    friend bool operator==(const Run& a, const Run& b);

    /// The extension order r <= r' of Section 2.1 (see header comment).
    bool is_extension_of(const Run& smaller) const;

    /// minimal(r): the smallest r0 <= r.
    Run minimal() const;

    bool is_minimal() const { return minimal() == *this; }

    /// fast(r) = ∞-part(minimal(r)).
    ProcessSet fast() const { return minimal().infinite_participants(); }

    /// slow(r): complement of fast(r) within {0, .., num_processes-1}.
    ProcessSet slow() const {
        return ProcessSet::full(num_processes_) - fast();
    }

    /// The metric of Section 5: d(r, r') = 1/(1+k) with k the number of
    /// leading rounds on which the runs agree (0 when they differ at once).
    Rational distance_to(const Run& other) const;

    /// The view of process p after round k (1-indexed depth: view(p, 0) is
    /// the initial view). Requires k == 0 or p in round k-1's support.
    /// `inputs`, if given, maps each participating process to its input
    /// vertex (Section 4.3); otherwise views carry ids only.
    ViewId view(ProcessId p, std::size_t k, ViewArena& arena,
                const std::vector<std::optional<topo::VertexId>>* inputs =
                    nullptr) const;

    /// Views of every process after rounds 0..k: table[j][p] is the view
    /// of p after j rounds, or nullopt if p dropped out by round j.
    /// Computed bottom-up in O(k * n) arena operations.
    std::vector<std::vector<std::optional<ViewId>>> view_table(
        std::size_t k, ViewArena& arena,
        const std::vector<std::optional<topo::VertexId>>* inputs =
            nullptr) const;

    /// Does p take a k-th step (1-indexed: step k means p in round k-1)?
    bool takes_step(ProcessId p, std::size_t k) const;

    std::string to_string() const;

private:
    std::uint32_t num_processes_;
    std::vector<OrderedPartition> prefix_;
    std::vector<OrderedPartition> cycle_;
};

std::ostream& operator<<(std::ostream& os, const Run& r);

/// The checks Run's constructor makes on its rounds, for callers that
/// walk rounds in place instead of building a Run: the process count is
/// in range, the cycle is non-empty, no prefix round is empty, supports
/// decrease weakly along prefix + cycle, and every cycle round has one
/// support. Throws precondition_error.
void validate_rounds(std::uint32_t num_processes,
                     std::span<const OrderedPartition> prefix,
                     std::span<const OrderedPartition> cycle);

/// Row 0 of Run::view_table: every process's initial view, carrying
/// `(*inputs)[p]` when `inputs` is given. Writes into `row` (resized to
/// num_processes).
void initial_view_row(std::uint32_t num_processes, ViewArena& arena,
                      const std::vector<std::optional<topo::VertexId>>* inputs,
                      std::vector<std::optional<ViewId>>& row);

/// Row j of Run::view_table from row j-1 (`previous`), where `round` is
/// the run's round j-1: one row per round actually executed, instead of
/// a whole table up front. Writes into `row` (resized to previous.size()),
/// which must not alias `previous`.
void next_view_row(const OrderedPartition& round,
                   const std::vector<std::optional<ViewId>>& previous,
                   ViewArena& arena, std::vector<std::optional<ViewId>>& row);

}  // namespace gact::iis
