// The four workloads. Each takes the run options and returns its
// metrics and golden-check verdict; see README.md for why each exists.
#pragma once

#include "common.h"

namespace perfbench {

Result run_heavy_solve(const RunOptions& options);
Result run_grid_sweep(const RunOptions& options);
Result run_serve_mix(const RunOptions& options);
Result run_fuzz_campaign(const RunOptions& options);

}  // namespace perfbench
