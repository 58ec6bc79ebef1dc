#include "sm/immediate_snapshot.h"

#include <map>
#include <set>
#include <string>

namespace gact::sm {

IsProcess::IsProcess(ProcessId id, Word value, std::uint32_t num_processes)
    : id_(id),
      value_(value),
      num_processes_(num_processes),
      level_(num_processes + 2) {
    require(id < num_processes, "IsProcess: id out of range");
}

void IsProcess::restart(Word value) {
    value_ = value;
    level_ = num_processes_ + 2;
    about_to_write_ = true;
    done_ = false;
    result_set_ = ProcessSet();
}

void IsProcess::step(SnapshotMemory levels, SnapshotMemory values) {
    require(!done_, "IsProcess: stepping a finished process");
    if (about_to_write_) {
        --level_;
        ensure(level_ >= 1, "IsProcess: descended below floor 1");
        values.update(id_, value_);
        levels.update(id_, level_);
        about_to_write_ = false;
        return;
    }
    // Snapshot step.
    const auto level_board = levels.snapshot();
    const auto value_board = values.snapshot();
    ProcessSet at_or_below;
    for (ProcessId q = 0; q < num_processes_; ++q) {
        if (level_board[q].has_value() && *level_board[q] <= level_) {
            at_or_below = at_or_below.with(q);
        }
    }
    if (at_or_below.size() >= level_) {
        result_.assign(num_processes_, std::nullopt);
        for (ProcessId q : at_or_below) {
            result_[q] = value_board[q];
        }
        result_set_ = at_or_below;
        done_ = true;
    } else {
        about_to_write_ = true;  // descend another floor
    }
}

ProcessSet IsProcess::result_set() const {
    require(done_, "IsProcess: no result yet");
    return result_set_;
}

const std::vector<std::optional<Word>>& IsProcess::result_values() const {
    require(done_, "IsProcess: no result yet");
    return result_;
}

IsOutcome run_immediate_snapshot(std::uint32_t num_processes,
                                 const std::vector<std::optional<Word>>& values,
                                 const std::vector<ProcessId>& schedule) {
    require(values.size() == num_processes,
            "run_immediate_snapshot: one value slot per process");
    std::vector<std::optional<Word>> level_board(num_processes);
    std::vector<std::optional<Word>> value_board(num_processes);
    std::vector<std::optional<IsProcess>> procs(num_processes);
    for (ProcessId p : schedule) {
        require(p < num_processes, "run_immediate_snapshot: bad schedule");
        if (!procs[p].has_value()) {
            require(values[p].has_value(),
                    "run_immediate_snapshot: scheduled process has no input");
            procs[p].emplace(p, *values[p], num_processes);
        }
        if (!procs[p]->done()) {
            procs[p]->step(SnapshotMemory(level_board),
                           SnapshotMemory(value_board));
        }
    }
    IsOutcome out;
    out.result_sets.assign(num_processes, ProcessSet());
    out.values.assign(num_processes, {});
    for (ProcessId p = 0; p < num_processes; ++p) {
        if (procs[p].has_value()) {
            if (!procs[p]->done()) {
                throw precondition_error(
                    "run_immediate_snapshot: schedule too short for p" +
                    std::to_string(p));
            }
            out.result_sets[p] = procs[p]->result_set();
            out.values[p] = procs[p]->result_values();
            out.finished = out.finished.with(p);
        }
    }
    return out;
}

std::string check_is_properties(const IsOutcome& outcome) {
    const auto& sets = outcome.result_sets;
    for (ProcessId p : outcome.finished.members()) {
        if (!sets[p].contains(p)) {
            return "self-inclusion fails for p" + std::to_string(p);
        }
    }
    for (ProcessId p : outcome.finished.members()) {
        for (ProcessId q : outcome.finished.members()) {
            if (!sets[p].contains_all(sets[q]) &&
                !sets[q].contains_all(sets[p])) {
                return "containment fails for p" + std::to_string(p) + ", p" +
                       std::to_string(q);
            }
            if (sets[p].contains(q) && !sets[p].contains_all(sets[q])) {
                return "immediacy fails: p" + std::to_string(q) + " in view of p" +
                       std::to_string(p);
            }
        }
    }
    return "";
}

iis::OrderedPartition outcome_partition(const IsOutcome& outcome) {
    require(!outcome.finished.empty(), "outcome_partition: nobody finished");
    require(check_is_properties(outcome).empty(),
            "outcome_partition: IS properties violated");
    // Group the finished processes by their result set; order by set size.
    std::map<std::uint32_t, ProcessSet> by_size;
    for (ProcessId p : outcome.finished.members()) {
        by_size[outcome.result_sets[p].size()] =
            by_size[outcome.result_sets[p].size()].with(p);
    }
    std::vector<ProcessSet> blocks;
    for (const auto& [size, block] : by_size) blocks.push_back(block);
    return iis::OrderedPartition(std::move(blocks));
}

namespace {

/// Global state of an in-progress one-shot IS execution, encodable for
/// state-space deduplication.
struct SearchState {
    std::vector<std::optional<IsProcess>> procs;
    std::vector<std::optional<Word>> levels;  // the two boards' cells
    std::vector<std::optional<Word>> values;

    std::string encode(std::uint32_t n) const {
        std::string key;
        for (ProcessId p = 0; p < n; ++p) {
            const auto lv = levels[p];
            key += lv ? std::to_string(*lv) : "-";
            if (!procs[p].has_value()) {
                key += "n";
            } else if (procs[p]->done()) {
                key += "D" + procs[p]->result_set().to_string();
            } else {
                // The machine's phase and private floor are part of the
                // global state; omitting them merges distinct states.
                key += procs[p]->pending_write() ? "w" : "s";
                key += std::to_string(procs[p]->current_level());
            }
            key += ";";
        }
        return key;
    }
};

}  // namespace

std::vector<IsOutcome> enumerate_is_outcomes(
    std::uint32_t num_processes, const std::vector<std::optional<Word>>& values,
    ProcessSet participants) {
    require(num_processes <= 4,
            "enumerate_is_outcomes: state space limited to <= 4 processes");
    std::vector<IsOutcome> outcomes;
    std::set<std::string> seen_states;
    std::set<std::string> seen_outcomes;

    SearchState initial{std::vector<std::optional<IsProcess>>(num_processes),
                        std::vector<std::optional<Word>>(num_processes),
                        std::vector<std::optional<Word>>(num_processes)};
    for (ProcessId p : participants.members()) {
        require(values[p].has_value(),
                "enumerate_is_outcomes: participant has no input");
        initial.procs[p].emplace(p, *values[p], num_processes);
    }

    std::vector<SearchState> stack{initial};
    while (!stack.empty()) {
        SearchState state = std::move(stack.back());
        stack.pop_back();
        if (!seen_states.insert(state.encode(num_processes)).second) continue;

        bool all_done = true;
        for (ProcessId p : participants.members()) {
            if (!state.procs[p]->done()) {
                all_done = false;
                SearchState next = state;
                next.procs[p]->step(SnapshotMemory(next.levels),
                                    SnapshotMemory(next.values));
                stack.push_back(std::move(next));
            }
        }
        if (all_done) {
            IsOutcome out;
            out.result_sets.assign(num_processes, ProcessSet());
            out.values.assign(num_processes, {});
            std::string key;
            for (ProcessId p : participants.members()) {
                out.result_sets[p] = state.procs[p]->result_set();
                out.values[p] = state.procs[p]->result_values();
                out.finished = out.finished.with(p);
                key += out.result_sets[p].to_string() + ";";
            }
            if (seen_outcomes.insert(key).second) {
                outcomes.push_back(std::move(out));
            }
        }
    }
    return outcomes;
}

}  // namespace gact::sm
