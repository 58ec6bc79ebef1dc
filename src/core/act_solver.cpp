#include "core/act_solver.h"

#include "exec/cancel.h"
#include "util/require.h"

namespace gact::core {

ChromaticMapProblem act_problem(const tasks::Task& task,
                                const topo::SubdividedComplex& chr_k,
                                AllowedComplexLru* lru,
                                SharedNogoodPool* nogood_pool) {
    ChromaticMapProblem problem;
    problem.domain = &chr_k.complex();
    problem.codomain = &task.outputs;
    if (nogood_pool != nullptr) {
        // Cross-solve learning scope: one (task, depth) pair is one
        // constraint problem (see run_act_search's soundness note).
        // Variables travel as stable (position, color) keys so the
        // per-depth vertex ids never leak into the pool.
        problem.nogood_pool = nogood_pool;
        problem.nogood_scope =
            task.name + "|wf-depth=" + std::to_string(chr_k.depth());
        problem.pool_var_key = [&chr_k, nogood_pool](VertexId v) {
            return nogood_pool->intern(chr_k.position(v),
                                       chr_k.complex().color(v));
        };
    }
    // eta(sigma) must lie in Delta(carrier(sigma)); carriers are exact
    // (coordinate supports), so this is precisely Corollary 7.1. The
    // carrier -> complex association is shared through the LRU when one
    // is supplied (carriers are base-complex simplices, so entries stay
    // valid across subdivision depths).
    problem.allowed = [&task, &chr_k, lru](const Simplex& sigma)
        -> const SimplicialComplex& {
        const Simplex carrier = chr_k.carrier_of(sigma);
        if (lru == nullptr) return task.delta.at(carrier);
        return lru->get(carrier,
                        [&]() { return &task.delta.at(carrier); });
    };
    return problem;
}

ActResult run_act_search(const tasks::Task& task, int max_k,
                         const SolverConfig& config,
                         SharedNogoodPool* nogood_pool) {
    require(task.validate().empty(), "run_act_search: invalid task");
    ActResult out;
    out.exhausted_all_depths = true;
    // One carrier-keyed LRU across every depth of the search.
    AllowedComplexLru lru(config.allowed_lru_capacity);
    AllowedComplexLru* lru_ptr =
        config.allowed_lru_capacity > 0 ? &lru : nullptr;
    topo::SubdividedComplex chr =
        topo::SubdividedComplex::identity(task.inputs);
    for (int k = 0; k <= max_k; ++k) {
        // Task-boundary cancellation (SolverConfig::cancel): a spent
        // time budget stops the depth ladder here, before the next
        // Chr^k build, instead of waiting for the CSP's backtrack
        // checkpoints deep inside it.
        if (config.cancel != nullptr && config.cancel->cancelled()) {
            out.exhausted_all_depths = false;
            return out;
        }
        if (k > 0) chr = chr.chromatic_subdivision();
        const ChromaticMapProblem problem =
            act_problem(task, chr, lru_ptr, nogood_pool);
        const ChromaticMapResult result =
            solve_chromatic_map(problem, config);
        out.backtracks_per_depth.push_back(result.counters.backtracks);
        out.counters.add(result.counters);
        if (!result.exhausted) out.exhausted_all_depths = false;
        if (result.map) {
            out.solvable = true;
            out.witness_depth = k;
            out.eta = result.map;
            out.domain = chr;
            return out;
        }
    }
    return out;
}

}  // namespace gact::core
