#include "engine/general_route.h"

#include "engine/stage_clock.h"
#include "exec/cancel.h"

namespace gact::engine {

GeneralWitness build_general_witness(const tasks::AffineTask& task,
                                     const StableRule& rule,
                                     std::size_t stages, bool fix_identity,
                                     core::LtGuidance guidance,
                                     const core::SolverConfig& solver,
                                     unsigned shard_threads,
                                     core::SharedNogoodPool* nogood_pool) {
    GeneralWitness out;
    auto start = stage_clock_now();
    out.tsub = core::TerminatingSubdivision(task.task.inputs);
    for (std::size_t i = 0; i < stages; ++i) {
        // Task-boundary cancellation (SolverConfig::cancel): check
        // BETWEEN stages only — never inside a stage's facet tasks,
        // whose deterministic stable-set merge must see every facet.
        // A stage cut short here leaves a coarser-but-valid T; the
        // empty-stable or no-delta verdicts below report the budget.
        if (solver.cancel != nullptr && solver.cancel->cancelled()) {
            break;
        }
        out.tsub.advance(
            [&rule](const core::SubdividedComplex& cx,
                    const topo::Simplex& s) { return rule.stable(cx, s); },
            shard_threads);
    }
    out.subdivision_millis = millis_since(start);
    if (out.tsub.stable_complex().is_empty()) return out;

    start = stage_clock_now();
    // No carrier LRU: the solver resolves each constraint complex once
    // per solve (core::ConstraintTable), and nothing outlives this one.
    const core::ChromaticMapProblem problem =
        core::lt_approximation_problem(task, out.tsub, fix_identity,
                                       guidance, nullptr, nogood_pool,
                                       rule.name());
    const core::ChromaticMapResult result =
        core::solve_chromatic_map(problem, solver);
    out.approximation_millis = millis_since(start);
    out.counters = result.counters;
    out.exhausted = result.exhausted;
    if (result.map.has_value()) out.delta = *result.map;
    return out;
}

}  // namespace gact::engine
