#include "runtime/schedule.h"

#include "iis/ordered_partition.h"
#include "util/require.h"

namespace gact::runtime {

std::size_t SplitMix64::below(std::size_t bound) {
    require(bound > 0, "SplitMix64::below: empty range");
    // Rejection keeps the draw exactly uniform (and still deterministic:
    // the retry sequence is part of the stream).
    const std::uint64_t b = static_cast<std::uint64_t>(bound);
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % b);
    std::uint64_t x = next();
    while (x >= limit) x = next();
    return static_cast<std::size_t>(x % b);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
    // One SplitMix64 step over the combined words decorrelates streams;
    // the golden-ratio offset keeps (seed, 0) distinct from (seed+1, ...).
    SplitMix64 rng(seed ^ (0x6a09e667f3bcc909ULL + stream * 0x9e3779b97f4a7c15ULL));
    return rng.next();
}

iis::Run Schedule::to_run() const {
    require(!cycle.empty(), "Schedule: empty cycle round");
    return iis::Run(num_processes, prefix, {cycle});
}

void Schedule::validate() const {
    require(!cycle.empty(), "Schedule: empty cycle round");
    iis::validate_rounds(num_processes, prefix, std::span(&cycle, 1));
}

std::string Schedule::to_string() const {
    std::string out = "p=";
    if (prefix.empty()) out += "-";
    for (std::size_t i = 0; i < prefix.size(); ++i) {
        if (i > 0) out += ",";
        out += prefix[i].to_string();
    }
    out += " c=" + cycle.to_string();
    return out;
}

ScheduleGenerator::ScheduleGenerator(std::uint32_t num_processes,
                                     std::shared_ptr<const iis::Model> model,
                                     std::uint32_t max_prefix_rounds)
    : num_processes_(num_processes),
      model_(std::move(model)),
      max_prefix_rounds_(max_prefix_rounds) {
    require(num_processes_ > 0, "ScheduleGenerator: no processes");
    for (ProcessSet s : nonempty_subsets(ProcessSet::full(num_processes_))) {
        if (model_ == nullptr ||
            model_->contains(iis::Run::forever(
                num_processes_, iis::OrderedPartition::concurrent(s)))) {
            cycle_supports_.push_back(s);
        }
    }
    require(!cycle_supports_.empty(),
            "ScheduleGenerator: model admits no period-1 cycle support");
    // A drawn support lies between a cycle support and the full set.
    partitions_.resize(std::size_t{1} << num_processes_);
    for (ProcessSet s : nonempty_subsets(ProcessSet::full(num_processes_))) {
        for (ProcessSet c : cycle_supports_) {
            if (s.contains_all(c)) {
                partitions_[s.bits()] = iis::all_ordered_partitions(s);
                break;
            }
        }
    }
}

Schedule ScheduleGenerator::next(SplitMix64& rng) const {
    const auto pick_partition = [this, &rng](ProcessSet support) {
        const std::vector<iis::OrderedPartition>& parts =
            partitions_[support.bits()];
        ensure(!parts.empty(), "ScheduleGenerator: support without partitions");
        return parts[rng.below(parts.size())];
    };
    // Bounded retry: the partition layout can shift fast(r) away from
    // the cycle support (minimal-run extraction), so the assembled run
    // is re-checked and redrawn on the rare rejection.
    for (int attempt = 0; attempt < 256; ++attempt) {
        Schedule s;
        s.num_processes = num_processes_;
        const ProcessSet cycle_support =
            cycle_supports_[rng.below(cycle_supports_.size())];
        // Prefix supports: a weakly decreasing chain from a random
        // superset of the cycle support down to it.
        const std::uint32_t depth =
            static_cast<std::uint32_t>(rng.below(max_prefix_rounds_ + 1));
        std::vector<ProcessSet> supports(depth);
        ProcessSet ceiling = ProcessSet::full(num_processes_);
        for (std::uint32_t i = 0; i < depth; ++i) {
            // A random set between cycle_support and the current ceiling:
            // keep every cycle process, coin-flip the rest of the ceiling.
            ProcessSet chosen = cycle_support;
            for (ProcessId p : ceiling - cycle_support) {
                if (rng.next() & 1) chosen = chosen.with(p);
            }
            supports[i] = chosen;
            ceiling = chosen;
        }
        s.prefix.reserve(depth);
        for (std::uint32_t i = 0; i < depth; ++i) {
            s.prefix.push_back(pick_partition(supports[i]));
        }
        s.cycle = pick_partition(cycle_support);
        if (model_ == nullptr || model_->contains(s.to_run())) return s;
    }
    throw precondition_error(
        "ScheduleGenerator: no admissible schedule found for model " +
        (model_ ? model_->name() : std::string("WF")) + " after 256 draws");
}

}  // namespace gact::runtime
