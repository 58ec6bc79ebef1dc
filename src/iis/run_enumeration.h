// Enumeration and sampling of runs: the compact families M_{D,K}.
//
// The sub-IIS models of the paper are sets of infinite runs; this library
// verifies protocols against the compact approximations M_{D} — all runs
// with an arbitrary schedule for D rounds that then stabilize to a fixed
// round repeated forever. This mirrors the paper's device of approximating
// a non-compact model by a sequence of compact models (Section 1, GACT
// discussion): M_0 ⊆ M_1 ⊆ ... and every eventually-period-1 run of the
// model appears in some M_D.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "exec/cancel.h"
#include "iis/models.h"
#include "iis/run.h"

namespace gact::iis {

/// All runs with `prefix_depth` arbitrary rounds (decreasing supports,
/// any first-round support) followed by one fixed partition repeated
/// forever. Grows quickly: use prefix_depth <= 2 for 3 processes.
/// `cancel` (exec/cancel.h), when set, is checked before each
/// first-round branch and once every 1,024 runs; once it has fired the
/// enumeration stops and returns the runs made so far, so a caller that
/// passes a token must check it before using the list.
std::vector<Run> enumerate_stabilized_runs(
    std::uint32_t num_processes, std::uint32_t prefix_depth,
    const exec::CancelToken* cancel = nullptr);

/// As above but restricted to runs where every process participates
/// (S_1 = {0, .., n}), the original IIS convention of [BG97].
std::vector<Run> enumerate_full_participation_runs(std::uint32_t num_processes,
                                                   std::uint32_t prefix_depth);

/// The subset of `runs` belonging to `model`. `cancel`, when set, is
/// checked once every 1,024 runs, starting before the first; once it has
/// fired the filter stops and returns the runs kept so far.
std::vector<Run> filter_by_model(const std::vector<Run>& runs,
                                 const Model& model,
                                 const exec::CancelToken* cancel = nullptr);

/// A uniformly random stabilized run: a random decreasing prefix of depth
/// <= max_prefix_depth followed by a random fixed tail partition.
Run random_stabilized_run(std::mt19937& rng, std::uint32_t num_processes,
                          std::uint32_t max_prefix_depth);

/// A random run from the model (rejection sampling; throws after
/// `max_attempts` failures).
Run random_run_in_model(std::mt19937& rng, const Model& model,
                        std::uint32_t num_processes,
                        std::uint32_t max_prefix_depth,
                        std::uint32_t max_attempts = 10000);

}  // namespace gact::iis
