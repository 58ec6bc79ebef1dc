// Schedules: finite, executable descriptions of IIS runs, plus seeded
// generators that only draw schedules a given model admits.
//
// The runtime executes protocols under *schedules*: a finite prefix of
// ordered-partition rounds followed by one cycle round repeated until
// every cycle process has decided. That is exactly the library's
// eventually-periodic Run representation (iis/run.h) with a period-1
// cycle, so admissibility of a schedule against a sub-IIS model is
// Model::contains on its Run — the same predicate the engine's
// admissibility stage uses, which is what entitles the fuzzer to treat
// a violation as a witness bug rather than an off-model run.
//
// Determinism contract: every random draw flows through SplitMix64 (a
// fixed published algorithm, no libstdc++ distribution in the path), so
// one (seed, iteration) pair names one schedule on any build — the
// property the replay CLI and the shard-reproducibility tests pin.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "iis/models.h"
#include "iis/run.h"

namespace gact::runtime {

/// Deterministic 64-bit PRNG (SplitMix64): fixed output sequence per
/// seed on every platform and standard library.
class SplitMix64 {
public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /// Uniform draw from [0, bound); bound must be positive.
    std::size_t below(std::size_t bound);

private:
    std::uint64_t state_;
};

/// Mix a seed with an iteration index into an independent stream seed
/// (so fuzz iterations are reproducible regardless of shard order).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// A finite schedule: `prefix` rounds, then `cycle` repeated forever.
/// Supports must be weakly decreasing along prefix + cycle (the IIS run
/// invariant); participants are the first round's support.
struct Schedule {
    std::uint32_t num_processes = 0;
    std::vector<iis::OrderedPartition> prefix;
    iis::OrderedPartition cycle;

    /// The eventually-periodic run this schedule describes.
    iis::Run to_run() const;

    ProcessSet participants() const {
        return prefix.empty() ? cycle.support() : prefix.front().support();
    }

    /// Round k (0-indexed): prefix rounds first, then the cycle.
    const iis::OrderedPartition& round(std::size_t k) const {
        return k < prefix.size() ? prefix[k] : cycle;
    }

    /// "p=({0}|{1,2}),({0,1,2}) c=({1,2})" — the replayable partition
    /// trace printed with counterexamples.
    std::string to_string() const;

    friend bool operator==(const Schedule& a, const Schedule& b) = default;
};

/// Seeded generator of schedules admissible for a model.
///
/// Family shaping: the generator pre-computes, once, the set of cycle
/// supports the model admits (probing Model::contains on the
/// forever-concurrent run of each support — exact for every fast-set-
/// determined family: wait-free admits all supports, Res_t those of
/// size >= n+1-t, OF_k those of size <= k, an adversary the complements
/// of its slow sets), and the ordered partitions of every support a draw
/// can reach. Each draw picks an admissible cycle support, a weakly
/// decreasing random prefix above it, and random ordered partitions from
/// those lists, then re-checks Model::contains on the assembled run —
/// the fuzzer never executes a schedule the model does not permit.
class ScheduleGenerator {
public:
    /// `model` may be null (wait-free: every schedule is admissible).
    /// Throws precondition_error if the model admits no cycle support.
    ScheduleGenerator(std::uint32_t num_processes,
                      std::shared_ptr<const iis::Model> model,
                      std::uint32_t max_prefix_rounds);

    /// Draw one admissible schedule from `rng`.
    Schedule next(SplitMix64& rng) const;

    const std::vector<ProcessSet>& admissible_cycle_supports() const {
        return cycle_supports_;
    }

private:
    std::uint32_t num_processes_;
    std::shared_ptr<const iis::Model> model_;
    std::uint32_t max_prefix_rounds_;
    std::vector<ProcessSet> cycle_supports_;
    /// all_ordered_partitions of every support a draw can reach, indexed
    /// by the support's bitmask (empty for the others).
    std::vector<std::vector<iis::OrderedPartition>> partitions_;
};

}  // namespace gact::runtime
