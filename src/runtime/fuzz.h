// Randomized execution checking of solved scenarios, with shrinking.
//
// fuzz() takes a scenario and its SolveReport, turns the witness into an
// executable decision rule (engine/executable.h), and runs it under
// `iterations` randomized schedules drawn from the scenario's model —
// only admissible ones, by construction of ScheduleGenerator. Every
// execution is checked against Definition 4.1 on the SM substrate; a
// failing schedule is *shrunk* (drop prefix rounds, flatten partitions)
// to a greedy-minimal counterexample that still fails and is still
// admissible, reported together with the (seed, iteration) pair that
// replays it exactly.
//
// Determinism: iteration i draws from SplitMix64(mix_seed(seed, i)), and
// results land in preallocated per-iteration slots folded in index
// order, so the result digest is bit-identical for 1 and N shard
// threads — the property the reproducibility tests pin.
#pragma once

#include "engine/engine.h"
#include "engine/scenario.h"
#include "runtime/schedule.h"

namespace gact::runtime {

struct FuzzConfig {
    std::uint64_t seed = 1;
    std::size_t iterations = 200;
    /// Shard threads (exec::for_index); results are thread-count
    /// independent.
    unsigned threads = 1;
    /// Longest random prefix before the cycle round.
    std::uint32_t max_prefix_rounds = 3;
    /// Horizon = prefix + (witness depth | landing horizon) + this.
    std::size_t horizon_slack = 8;
    /// Extra rounds executed after the last decision (stability check).
    std::size_t stability_tail = 2;
    /// Cross-check every executed round's substrate views against the
    /// analytic ones (Run::view_table's rows).
    bool check_views = true;
    /// Keep at most this many shrunk counterexamples in the result.
    std::size_t max_recorded_violations = 4;
    /// Executions the shrinker may spend per counterexample.
    std::size_t shrink_budget = 400;
};

/// One failing execution, with its shrunk replayable form.
struct FuzzViolation {
    std::uint64_t iteration = 0;  ///< replay: mix_seed(seed, iteration)
    std::size_t omega_index = 0;  ///< input facet index (0 if inputless)
    Schedule schedule;            ///< as drawn
    Schedule shrunk;              ///< greedy-minimal, still failing
    std::string detail;           ///< first violation message
};

struct FuzzResult {
    std::string scenario;
    bool skipped = false;      ///< no runnable witness
    std::string skip_reason;   ///< why (verdict, missing artifacts)
    std::size_t executed = 0;  ///< schedules executed
    std::size_t violation_count = 0;
    /// First max_recorded_violations failures, in iteration order.
    std::vector<FuzzViolation> violations;
    /// Deterministic fold of all execution outcomes, in iteration order.
    std::uint64_t result_digest = 0;

    bool clean() const { return !skipped && violation_count == 0; }
    /// "name: N schedules, V violations, digest <hex>".
    std::string summary() const;
};

/// Fuzz a solved scenario's witness. Unsolvable / unsupported /
/// artifact-less reports come back `skipped` (never a throw): the
/// campaign driver treats those as vacuously passing.
FuzzResult fuzz(const engine::Scenario& scenario,
                const engine::SolveReport& report, const FuzzConfig& config);

/// fuzz() and record the outcome as report.executed_check.
engine::ExecutedCheck attach_executed_check(const engine::Scenario& scenario,
                                            engine::SolveReport& report,
                                            const FuzzConfig& config);

}  // namespace gact::runtime
