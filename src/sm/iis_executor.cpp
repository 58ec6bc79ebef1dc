#include "sm/iis_executor.h"

#include <array>
#include <memory>
#include <set>
#include <span>

namespace gact::sm {

IisExecution::IisExecution(
    std::uint32_t num_processes, ProcessSet participants,
    iis::ViewArena& arena,
    const std::vector<std::optional<topo::VertexId>>* inputs)
    : num_processes_(num_processes), arena_(&arena) {
    require(ProcessSet::full(num_processes).contains_all(participants),
            "IisExecution: participants out of range");
    procs_.reserve(num_processes);
    for (ProcessId p = 0; p < num_processes; ++p) {
        procs_.push_back(PerProcess{IsProcess(p, 0, num_processes)});
    }
    for (ProcessId p : participants) {
        std::optional<topo::VertexId> input;
        if (inputs != nullptr) {
            require(p < inputs->size(), "IisExecution: inputs too short");
            input = (*inputs)[p];
        }
        procs_[p].participating = true;
        procs_[p].view = arena.make_initial(p, input);
    }
}

std::size_t IisExecution::slot_base(std::size_t m) {
    if (levels_.size() <= m) {
        levels_.resize(m + 1);
        const std::size_t slots = (m + 1) * num_processes_;
        floor_cells_.resize(slots);
        value_cells_.resize(slots);
        result_sets_.resize(slots);
    }
    return m * num_processes_;
}

void IisExecution::step(ProcessId p) {
    require(p < num_processes_, "IisExecution: unknown process");
    PerProcess& pp = procs_[p];
    if (!pp.participating) return;
    const std::size_t base = slot_base(pp.level);
    Level& level = levels_[pp.level];
    if (!pp.in_instance) {
        // Enter the IS instance of the current level with the current view
        // as the full-information value.
        pp.machine.restart(static_cast<Word>(pp.view));
        pp.in_instance = true;
        level.entered = level.entered.with(p);
    }
    pp.machine.step(
        SnapshotMemory(std::span(floor_cells_).subspan(base, num_processes_)),
        SnapshotMemory(std::span(value_cells_).subspan(base, num_processes_)));
    if (pp.machine.done()) {
        // Collect the seen views and form the next view.
        const ProcessSet result_set = pp.machine.result_set();
        const auto& values = pp.machine.result_values();
        std::vector<iis::ViewId> seen;
        seen.reserve(result_set.size());
        for (ProcessId q : result_set) {
            ensure(values[q].has_value(),
                   "IisExecution: result set member without value");
            seen.push_back(static_cast<iis::ViewId>(*values[q]));
        }
        level.finished = level.finished.with(p);
        result_sets_[base + p] = result_set;
        pp.view = arena_->make_view(p, std::move(seen));
        pp.in_instance = false;
        ++pp.level;
    }
}

void IisExecution::run_levels(const std::vector<ProcessId>& schedule,
                              std::size_t levels) {
    for (ProcessId p : schedule) {
        step(p);
        bool all_done = true;
        for (ProcessId q = 0; q < num_processes_; ++q) {
            if (procs_[q].participating && procs_[q].level < levels) {
                all_done = false;
            }
        }
        if (all_done) return;
    }
    for (ProcessId q = 0; q < num_processes_; ++q) {
        if (procs_[q].participating && procs_[q].level < levels) {
            throw precondition_error(
                "IisExecution: schedule too short for process " +
                std::to_string(q));
        }
    }
}

std::size_t IisExecution::run_partition_round(const iis::OrderedPartition& round) {
    require(!round.empty(), "run_partition_round: empty round");
    require(ProcessSet::full(num_processes_).contains_all(round.support()),
            "run_partition_round: support out of range");
    const std::size_t m = level_of(round.support().min());
    for (ProcessId p : round.support()) {
        if (!procs_[p].participating) {
            throw precondition_error("run_partition_round: process " +
                                     std::to_string(p) +
                                     " is not a participant");
        }
        if (procs_[p].level != m) {
            throw precondition_error(
                "run_partition_round: process " + std::to_string(p) +
                " is at level " + std::to_string(procs_[p].level) +
                ", round needs level " + std::to_string(m));
        }
    }
    for (const ProcessSet& block : round.blocks()) {
        // Lockstep descent: all writes of the block, then all snapshots,
        // until the whole block returns (they terminate together, at the
        // floor equal to the cumulative support so far).
        while (true) {
            bool any_pending = false;
            for (ProcessId p : block) {
                if (procs_[p].level == m) {
                    any_pending = true;
                    step(p);  // write
                }
            }
            if (!any_pending) break;
            for (ProcessId p : block) {
                if (procs_[p].level == m) step(p);  // snapshot
            }
        }
    }
    if (!realizes(m, round)) {
        throw invariant_error("run_partition_round: SM substrate realized " +
                              partition_of_level(m).to_string() +
                              " instead of " + round.to_string());
    }
    return m;
}

bool IisExecution::realizes(std::size_t m,
                            const iis::OrderedPartition& round) const {
    // partition_of_level(m) == round without building it: the level is
    // complete with exactly round's processes, each block's processes
    // returned sets of one size, and that size rises block by block (so
    // grouping by size gives back round's blocks in order).
    if (m >= levels_.size()) return false;
    const Level& level = levels_[m];
    if (level.entered != level.finished || level.finished != round.support()) {
        return false;
    }
    const std::size_t base = m * num_processes_;
    std::uint32_t previous = 0;
    for (const ProcessSet& block : round.blocks()) {
        const std::uint32_t size = result_sets_[base + block.min()].size();
        if (size <= previous) return false;
        for (ProcessId p : block) {
            if (result_sets_[base + p].size() != size) return false;
        }
        previous = size;
    }
    return true;
}

std::size_t IisExecution::level_of(ProcessId p) const {
    require(p < num_processes_, "IisExecution: unknown process");
    return procs_[p].level;
}

iis::ViewId IisExecution::view_of(ProcessId p) const {
    require(p < num_processes_ && procs_[p].participating,
            "IisExecution: not a participant");
    return procs_[p].view;
}

iis::OrderedPartition IisExecution::partition_of_level(std::size_t m) const {
    require(m < levels_.size(), "IisExecution: level not started");
    const Level& level = levels_[m];
    require(level.entered == level.finished,
            "IisExecution: level still in progress");
    require(!level.finished.empty(), "IisExecution: empty level");
    // Processes returning sets of one size form one block; blocks are
    // ordered by that size.
    std::array<ProcessSet, kMaxProcesses + 1> by_size{};
    for (ProcessId p : level.finished) {
        ProcessSet& block =
            by_size[result_sets_[m * num_processes_ + p].size()];
        block = block.with(p);
    }
    std::vector<ProcessSet> blocks;
    for (const ProcessSet& block : by_size) {
        if (!block.empty()) blocks.push_back(block);
    }
    return iis::OrderedPartition(std::move(blocks));
}

std::size_t IisExecution::completed_levels() const {
    std::size_t m = 0;
    while (m < levels_.size() && !levels_[m].finished.empty() &&
           levels_[m].entered == levels_[m].finished) {
        ++m;
    }
    return m;
}

std::vector<iis::OrderedPartition> IisExecution::extract_prefix() const {
    std::vector<iis::OrderedPartition> out;
    for (std::size_t m = 0; m < completed_levels(); ++m) {
        out.push_back(partition_of_level(m));
    }
    return out;
}

namespace {

std::string encode_execution(const IisExecution& exec,
                             ProcessSet participants) {
    std::string key;
    for (ProcessId p : participants.members()) {
        key += std::to_string(exec.level_of(p)) + ":" +
               std::to_string(exec.view_of(p)) + ";";
    }
    key += "|" + exec.encode_boards();
    return key;
}

}  // namespace

std::string IisExecution::encode_boards() const {
    std::string key;
    for (std::size_t m = 0; m < levels_.size(); ++m) {
        for (ProcessId p = 0; p < num_processes_; ++p) {
            const auto& lv = floor_cells_[m * num_processes_ + p];
            key += lv ? std::to_string(*lv) : "-";
            key += ",";
        }
        key += "/";
    }
    for (const PerProcess& pp : procs_) {
        if (pp.in_instance) {
            key += pp.machine.pending_write() ? "w" : "s";
            key += std::to_string(pp.machine.current_level());
        } else {
            key += "n";
        }
        key += ";";
    }
    return key;
}

std::vector<std::vector<iis::OrderedPartition>> enumerate_iis_prefixes(
    std::uint32_t num_processes, std::size_t levels) {
    require(num_processes <= 3 && levels <= 2,
            "enumerate_iis_prefixes: state space limited to 3 processes, "
            "2 levels");
    const ProcessSet participants = ProcessSet::full(num_processes);
    std::vector<std::vector<iis::OrderedPartition>> out;
    std::set<std::string> seen_states;
    std::set<std::string> seen_prefixes;

    // The arena is shared by all branches: interning is global, so view
    // ids are stable across copies of the execution.
    auto arena = std::make_shared<iis::ViewArena>();
    std::vector<IisExecution> stack;
    stack.emplace_back(num_processes, participants, *arena);
    while (!stack.empty()) {
        IisExecution exec = std::move(stack.back());
        stack.pop_back();
        if (!seen_states
                 .insert(encode_execution(exec, participants))
                 .second) {
            continue;
        }
        bool all_done = true;
        for (ProcessId p : participants.members()) {
            if (exec.level_of(p) < levels) {
                all_done = false;
                IisExecution next = exec;
                next.step(p);
                stack.push_back(std::move(next));
            }
        }
        if (all_done) {
            const auto prefix = exec.extract_prefix();
            std::string key;
            for (const auto& part : prefix) key += part.to_string();
            if (seen_prefixes.insert(key).second) out.push_back(prefix);
        }
    }
    return out;
}

std::vector<iis::OrderedPartition> run_iis_round_robin(
    std::uint32_t num_processes, ProcessSet participants, std::size_t depth,
    iis::ViewArena& arena) {
    IisExecution exec(num_processes, participants, arena);
    std::vector<ProcessId> schedule;
    const std::size_t steps_per_level = 2 * (num_processes + 2);
    for (std::size_t i = 0; i < depth * steps_per_level; ++i) {
        for (ProcessId p : participants.members()) schedule.push_back(p);
    }
    exec.run_levels(schedule, depth);
    return exec.extract_prefix();
}

}  // namespace gact::sm
