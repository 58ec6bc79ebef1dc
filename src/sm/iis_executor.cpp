#include "sm/iis_executor.h"

#include <map>
#include <memory>
#include <set>

namespace gact::sm {

IisExecution::IisExecution(
    std::uint32_t num_processes, ProcessSet participants,
    iis::ViewArena& arena,
    const std::vector<std::optional<topo::VertexId>>* inputs)
    : num_processes_(num_processes), arena_(&arena), procs_(num_processes) {
    require(ProcessSet::full(num_processes).contains_all(participants),
            "IisExecution: participants out of range");
    for (ProcessId p : participants.members()) {
        std::optional<topo::VertexId> input;
        if (inputs != nullptr) {
            require(p < inputs->size(), "IisExecution: inputs too short");
            input = (*inputs)[p];
        }
        procs_[p].participating = true;
        procs_[p].view = arena.make_initial(p, input);
    }
}

IisExecution::Level& IisExecution::level_boards(std::size_t m) {
    while (levels_.size() <= m) levels_.emplace_back(num_processes_);
    return levels_[m];
}

void IisExecution::step(ProcessId p) {
    require(p < num_processes_, "IisExecution: unknown process");
    PerProcess& pp = procs_[p];
    if (!pp.participating) return;
    Level& boards = level_boards(pp.level);
    if (!pp.machine.has_value()) {
        // Enter the IS instance of the current level with the current view
        // as the full-information value.
        pp.machine.emplace(p, static_cast<Word>(pp.view), num_processes_);
        boards.entered = boards.entered.with(p);
    }
    pp.machine->step(boards.levels, boards.values);
    if (pp.machine->done()) {
        // Collect the seen views and form the next view.
        std::vector<iis::ViewId> seen;
        const auto& values = pp.machine->result_values();
        for (ProcessId q : pp.machine->result_set().members()) {
            ensure(values[q].has_value(),
                   "IisExecution: result set member without value");
            seen.push_back(static_cast<iis::ViewId>(*values[q]));
        }
        boards.finished = boards.finished.with(p);
        boards.result_sets[p] = pp.machine->result_set();
        pp.view = arena_->make_view(p, std::move(seen));
        pp.machine.reset();
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
    for (ProcessId p : round.support().members()) {
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
            for (ProcessId p : block.members()) {
                if (procs_[p].level == m) {
                    any_pending = true;
                    step(p);  // write
                }
            }
            if (!any_pending) break;
            for (ProcessId p : block.members()) {
                if (procs_[p].level == m) step(p);  // snapshot
            }
        }
    }
    const iis::OrderedPartition realized = partition_of_level(m);
    if (realized != round) {
        throw invariant_error("run_partition_round: SM substrate realized " +
                              realized.to_string() + " instead of " +
                              round.to_string());
    }
    return m;
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
    const Level& boards = levels_[m];
    require(boards.entered == boards.finished,
            "IisExecution: level still in progress");
    require(!boards.finished.empty(), "IisExecution: empty level");
    std::map<std::uint32_t, ProcessSet> by_size;
    for (ProcessId p : boards.finished.members()) {
        by_size[boards.result_sets[p].size()] =
            by_size[boards.result_sets[p].size()].with(p);
    }
    std::vector<ProcessSet> blocks;
    for (const auto& [size, block] : by_size) blocks.push_back(block);
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
    for (const Level& boards : levels_) {
        for (ProcessId p = 0; p < num_processes_; ++p) {
            const auto lv = boards.levels.read(p);
            key += lv ? std::to_string(*lv) : "-";
            key += ",";
        }
        key += "/";
    }
    for (const PerProcess& pp : procs_) {
        if (pp.machine.has_value()) {
            key += pp.machine->pending_write() ? "w" : "s";
            key += std::to_string(pp.machine->current_level());
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
