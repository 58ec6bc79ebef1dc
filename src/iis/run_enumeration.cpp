#include "iis/run_enumeration.h"

#include "util/require.h"

namespace gact::iis {

namespace {

// How many runs pass between two checks of a cancel token.
constexpr std::size_t kCancelStride = 1024;

bool fired(const exec::CancelToken* cancel) {
    return cancel != nullptr && cancel->cancelled();
}

/// Appends every run extending `prefix`; false once `cancel` has fired.
bool extend(std::uint32_t num_processes,
            std::vector<OrderedPartition>& prefix,
            ProcessSet current_support, std::uint32_t remaining_depth,
            const exec::CancelToken* cancel, std::vector<Run>& out) {
    if (remaining_depth == 0) {
        // Close with any fixed tail on any non-empty subset of the current
        // support.
        for (const ProcessSet f : nonempty_subsets(current_support)) {
            for (const OrderedPartition& tail : all_ordered_partitions(f)) {
                if (out.size() % kCancelStride == 0 && fired(cancel)) {
                    return false;
                }
                out.emplace_back(num_processes, prefix,
                                 std::vector<OrderedPartition>{tail});
            }
        }
        return true;
    }
    for (const ProcessSet s : nonempty_subsets(current_support)) {
        for (const OrderedPartition& round : all_ordered_partitions(s)) {
            // Each first-round branch starts with a check.
            if (prefix.empty() && fired(cancel)) return false;
            prefix.push_back(round);
            const bool whole = extend(num_processes, prefix, s,
                                      remaining_depth - 1, cancel, out);
            prefix.pop_back();
            if (!whole) return false;
        }
    }
    return true;
}

}  // namespace

std::vector<Run> enumerate_stabilized_runs(std::uint32_t num_processes,
                                           std::uint32_t prefix_depth,
                                           const exec::CancelToken* cancel) {
    require(num_processes >= 1 && num_processes <= 5,
            "enumerate_stabilized_runs: enumeration limited to <= 5 processes");
    std::vector<Run> out;
    std::vector<OrderedPartition> prefix;
    extend(num_processes, prefix, ProcessSet::full(num_processes),
           prefix_depth, cancel, out);
    return out;
}

std::vector<Run> enumerate_full_participation_runs(
    std::uint32_t num_processes, std::uint32_t prefix_depth) {
    std::vector<Run> all = enumerate_stabilized_runs(num_processes,
                                                     prefix_depth);
    std::vector<Run> out;
    for (Run& r : all) {
        if (r.participants() == ProcessSet::full(num_processes)) {
            out.push_back(std::move(r));
        }
    }
    return out;
}

std::vector<Run> filter_by_model(const std::vector<Run>& runs,
                                 const Model& model,
                                 const exec::CancelToken* cancel) {
    std::vector<Run> out;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (i % kCancelStride == 0 && fired(cancel)) break;
        if (model.contains(runs[i])) out.push_back(runs[i]);
    }
    return out;
}

Run random_stabilized_run(std::mt19937& rng, std::uint32_t num_processes,
                          std::uint32_t max_prefix_depth) {
    const auto pick_subset = [&](ProcessSet support) {
        const std::vector<ProcessSet> subsets = nonempty_subsets(support);
        std::uniform_int_distribution<std::size_t> dist(0, subsets.size() - 1);
        return subsets[dist(rng)];
    };
    const auto pick_partition = [&](ProcessSet support) {
        const std::vector<OrderedPartition> parts =
            all_ordered_partitions(support);
        std::uniform_int_distribution<std::size_t> dist(0, parts.size() - 1);
        return parts[dist(rng)];
    };

    std::uniform_int_distribution<std::uint32_t> depth_dist(0,
                                                            max_prefix_depth);
    const std::uint32_t depth = depth_dist(rng);
    std::vector<OrderedPartition> prefix;
    ProcessSet support = ProcessSet::full(num_processes);
    for (std::uint32_t i = 0; i < depth; ++i) {
        support = pick_subset(support);
        prefix.push_back(pick_partition(support));
    }
    const ProcessSet tail_support = pick_subset(support);
    return Run(num_processes, std::move(prefix),
               {pick_partition(tail_support)});
}

Run random_run_in_model(std::mt19937& rng, const Model& model,
                        std::uint32_t num_processes,
                        std::uint32_t max_prefix_depth,
                        std::uint32_t max_attempts) {
    for (std::uint32_t i = 0; i < max_attempts; ++i) {
        Run r = random_stabilized_run(rng, num_processes, max_prefix_depth);
        if (model.contains(r)) return r;
    }
    throw precondition_error("random_run_in_model: no run found for model " +
                             model.name());
}

}  // namespace gact::iis
