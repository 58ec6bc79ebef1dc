// IIS on top of shared memory: chained one-shot immediate snapshots.
//
// Operationally (paper, Section 2.1): every process marches through
// IS_1, IS_2, ..., entering IS_{m+1} with its output from IS_m. Here each
// IS_m is a Borowsky-Gafni instance over snapshot memory, so an IIS run is
// literally executed on the SM substrate; full-information values are
// interned views (iis::ViewArena), which lets tests check that the
// SM execution produces exactly the views the abstract Run semantics
// prescribes — the SM -> IIS simulation direction, made executable.
#pragma once

#include <memory>

#include "iis/run.h"
#include "sm/immediate_snapshot.h"

namespace gact::sm {

/// A multi-level IIS execution driven one atomic step at a time.
class IisExecution {
public:
    /// Participants start with their depth-0 views (optionally carrying
    /// input vertices, cf. Section 4.3).
    IisExecution(std::uint32_t num_processes, ProcessSet participants,
                 iis::ViewArena& arena,
                 const std::vector<std::optional<topo::VertexId>>* inputs =
                     nullptr);

    /// One atomic step of process p (skipped if p is not a participant).
    void step(ProcessId p);

    /// Run `schedule` to completion of level `levels` for all participants
    /// (throws if the schedule is too short).
    void run_levels(const std::vector<ProcessId>& schedule,
                    std::size_t levels);

    /// Deterministic scheduling hook (runtime layer): drive the next IS
    /// level so that it realizes exactly the ordered partition `round`.
    /// Block j's processes run in write/snapshot lockstep after blocks
    /// 1..j-1 finished, which makes them descend together and return
    /// precisely the union of blocks 1..j — the BG schedule realizing
    /// the partition. Every process in round's support must be a
    /// participant standing at the same level (true whenever rounds are
    /// driven in sequence with weakly decreasing supports). The realized
    /// partition is re-read from the boards and checked against `round`,
    /// so a substrate bug surfaces here, not in the caller's outputs.
    /// Returns the level index that was driven.
    std::size_t run_partition_round(const iis::OrderedPartition& round);

    /// The IS level process p is currently executing (0-based; equals the
    /// number of IS instances p has completed).
    std::size_t level_of(ProcessId p) const;

    /// The current view of p: its output of the last completed IS.
    iis::ViewId view_of(ProcessId p) const;

    /// The ordered partition realized by level m. Requires every process
    /// that entered level m to have finished it.
    iis::OrderedPartition partition_of_level(std::size_t m) const;

    /// Number of levels at least one process has completed.
    std::size_t completed_levels() const;

    /// The IIS run prefix realized by the completed levels.
    std::vector<iis::OrderedPartition> extract_prefix() const;

    /// Opaque encoding of the shared-memory boards and machine phases,
    /// used by the exhaustive state-space search.
    std::string encode_boards() const;

private:
    struct PerProcess {
        IsProcess machine;          // restarted at every level
        bool in_instance = false;   // machine is running level `level`
        std::size_t level = 0;
        iis::ViewId view = 0;
        bool participating = false;
    };

    struct Level {
        ProcessSet entered;
        ProcessSet finished;
    };

    /// Level m's slots in the flat arrays below, opening the level (and
    /// any below it) on first use.
    std::size_t slot_base(std::size_t m);
    /// Does level m's outcome, read from the result sets, equal `round`?
    bool realizes(std::size_t m, const iis::OrderedPartition& round) const;

    std::uint32_t num_processes_;
    iis::ViewArena* arena_;
    std::vector<PerProcess> procs_;
    std::vector<Level> levels_;
    // Every level's level board, value board and result sets, n slots per
    // level back to back: a new level reuses their capacity.
    std::vector<std::optional<Word>> floor_cells_;
    std::vector<std::optional<Word>> value_cells_;
    std::vector<ProcessSet> result_sets_;
};

/// Convenience: execute `depth` IIS levels under a round-robin schedule
/// restricted to `participants` and return the realized run prefix.
std::vector<iis::OrderedPartition> run_iis_round_robin(
    std::uint32_t num_processes, ProcessSet participants, std::size_t depth,
    iis::ViewArena& arena);

/// All reachable `levels`-round IIS prefixes over every SM schedule
/// (state-space search with deduplication, like enumerate_is_outcomes but
/// across chained instances). The result is deduplicated by the realized
/// partition sequence. Small process counts only.
std::vector<std::vector<iis::OrderedPartition>> enumerate_iis_prefixes(
    std::uint32_t num_processes, std::size_t levels);

}  // namespace gact::sm
