// The traced replay of Engine::solve: the same public library calls the
// engine makes, in the same order, each wrapped in a span. It covers the
// scenarios the workloads solve — no pool file, no time budget — and its
// report must match Engine::solve's (verdict, witness digest, counts).
#pragma once

#include "common.h"
#include "engine/engine.h"

namespace perfbench {

/// Solve `scenario` as Engine::solve would, recording one span per layer
/// call under `parent` (request id `request`).
gact::engine::SolveReport traced_solve(const gact::engine::Scenario& scenario,
                                       Tracer& tracer, std::uint64_t request,
                                       std::int64_t parent);

/// The layer spans traced_solve records, in pipeline order.
inline constexpr const char* kSolveSpans[] = {
    "core.act_search",  "core.tsub_init",     "core.tsub_advance",
    "core.tsub_stable_complex", "core.approx_build", "core.csp_search",
    "iis.run_enum",     "core.admissibility",
};

/// Work counts of the solves of one pass, emitted as per-layer counts.
struct SolveCounts {
    double tsub_vertices = 0;     // vertices of each last stage complex
    double tsub_facets = 0;       // and its top-dimensional simplices
    double stable_simplices = 0;  // simplices of K(T)
    double backtracks = 0;
    double nogoods_recorded = 0;
    double cache_hits = 0;
    double cache_misses = 0;
    double runs = 0;          // compact runs enumerated for the model
    double runs_checked = 0;  // runs the admissibility check landed

    /// Count one report (walks its last stage complex once).
    void add(const gact::engine::SolveReport& report);
    void emit(Result& result) const;
};

/// Per-layer metrics of traced solve passes: for every span in
/// kSolveSpans plus "engine.scenario_build" and "engine.report_release",
/// the median over `passes` of the time a pass spent in it
/// (`<span>_ms`), then add_unaccounted_share.
void add_layer_metrics(Result& result, const Tracer& tracer,
                       const std::vector<std::int64_t>& passes);

/// engine.unaccounted_share: the median over `passes` of the share of a
/// pass's wall that no child span covers. Spans named "bench.inspect"
/// are the benchmark's own checks: they count neither as layer time nor
/// as pass wall.
void add_unaccounted_share(Result& result, const Tracer& tracer,
                           const std::vector<std::int64_t>& passes);

/// trace.overhead_share: median traced pass over median plain pass, - 1.
void add_overhead_share(Result& result,
                        const std::pair<std::vector<double>,
                                        std::vector<double>>& pairs);

}  // namespace perfbench
