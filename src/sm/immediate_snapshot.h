// The Borowsky-Gafni one-shot immediate snapshot [BG93], as an explicit
// step machine under an adversarial scheduler.
//
// Each process descends "floors": starting at level n+2 it repeatedly
// (a) decrements and writes its level together with its value, then
// (b) takes a snapshot; if at least `level` processes are at or below its
// level, it returns those processes' values.
//
// The returned sets realize one immediate-snapshot task: they satisfy
//  * self-inclusion:  p in S_p,
//  * containment:     S_p ⊆ S_q or S_q ⊆ S_p,
//  * immediacy:       q in S_p implies S_q ⊆ S_p,
// and therefore determine an ordered partition of the participants — a
// simplex of the standard chromatic subdivision Chr s (paper, Sections 2.1
// and 10; [Kozlov 2012], [Linial 2010]).
#pragma once

#include <optional>
#include <vector>

#include "iis/ordered_partition.h"
#include "sm/snapshot_memory.h"

namespace gact::sm {

/// One process's state in the BG immediate-snapshot protocol.
class IsProcess {
public:
    IsProcess(ProcessId id, Word value, std::uint32_t num_processes);

    /// Start a fresh instance with input `value` (the next IS level of
    /// a chained execution), keeping the result buffer's capacity.
    void restart(Word value);

    ProcessId id() const noexcept { return id_; }
    bool done() const noexcept { return done_; }

    /// Current floor (for diagnostics and state-space search).
    std::uint32_t current_level() const noexcept { return level_; }
    /// True when the next step is a write (vs a snapshot).
    bool pending_write() const noexcept { return about_to_write_; }

    /// Execute one atomic step (a write or a snapshot) against `levels`
    /// (the level board) and `values` (the value board).
    void step(SnapshotMemory levels, SnapshotMemory values);

    /// The processes whose values p returned. Requires done().
    ProcessSet result_set() const;

    /// The values p returned, indexed by process. Requires done().
    const std::vector<std::optional<Word>>& result_values() const;

private:
    ProcessId id_;
    Word value_;
    std::uint32_t num_processes_;
    std::uint32_t level_;
    bool about_to_write_ = true;
    bool done_ = false;
    std::vector<std::optional<Word>> result_;
    ProcessSet result_set_;
};

/// A complete one-shot IS execution under a given schedule.
struct IsOutcome {
    /// result_sets[p]: the set returned by p (empty if p never ran).
    std::vector<ProcessSet> result_sets;
    /// values[p][q]: the value of q that p returned (if any).
    std::vector<std::vector<std::optional<Word>>> values;
    /// Processes that completed the protocol.
    ProcessSet finished;
};

/// Run the one-shot IS with inputs `values` (participants only) under a
/// schedule: at each schedule entry the named process takes one step;
/// entries for finished processes are skipped. Afterwards every scheduled
/// process must have finished (pass enough steps: 2*(n+2) per process).
IsOutcome run_immediate_snapshot(std::uint32_t num_processes,
                                 const std::vector<std::optional<Word>>& values,
                                 const std::vector<ProcessId>& schedule);

/// Check the three IS properties on an outcome; returns a diagnostic
/// string, or "" if all hold.
std::string check_is_properties(const IsOutcome& outcome);

/// The ordered partition determined by the outcome: processes grouped by
/// their returned set, ordered by set size. Requires properties to hold
/// and at least one finished process.
iis::OrderedPartition outcome_partition(const IsOutcome& outcome);

/// All reachable outcomes of the one-shot IS over every schedule, for
/// small process counts (state-space search with deduplication).
std::vector<IsOutcome> enumerate_is_outcomes(
    std::uint32_t num_processes, const std::vector<std::optional<Word>>& values,
    ProcessSet participants);

}  // namespace gact::sm
