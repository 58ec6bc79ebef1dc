#include "traced_solve.h"

#include <memory>

#include "core/eval_cache.h"
#include "core/lt_pipeline.h"
#include "iis/run_enumeration.h"

namespace perfbench {

using gact::engine::Scenario;
using gact::engine::SolveReport;
using gact::engine::Verdict;

namespace {

SolveReport traced_wait_free(const Scenario& sc, Tracer& tr,
                             std::uint64_t req, std::int64_t parent) {
    SolveReport report;
    report.scenario = sc.name;
    gact::core::ActResult act = tr.record("core.act_search", req, parent, [&] {
        return gact::core::run_act_search(sc.task, sc.options.max_depth,
                                          sc.options.solver,
                                          sc.options.nogood_pool.get());
    });
    report.counters = act.counters;
    report.total_backtracks = act.counters.backtracks;
    if (act.solvable) {
        report.verdict = Verdict::kSolvable;
        report.witness = std::move(act.eta);
        report.witness_depth = act.witness_depth;
    } else {
        report.verdict = act.exhausted_all_depths ? Verdict::kUnsolvableAtDepth
                                                  : Verdict::kBudgetExhausted;
    }
    return report;
}

SolveReport traced_general(const Scenario& sc, Tracer& tr, std::uint64_t req,
                           std::int64_t parent) {
    SolveReport report;
    report.scenario = sc.name;
    const gact::engine::EngineOptions& opt = sc.options;
    if (!sc.affine.has_value() || opt.stable_rule == nullptr) {
        report.verdict = Verdict::kUnsupported;
        return report;
    }
    // The engine's kRadial downgrade on bases other than n = 2.
    gact::core::LtGuidance guidance = opt.guidance;
    if (guidance == gact::core::LtGuidance::kRadial &&
        sc.affine->subdivision.base().dimension() != 2) {
        guidance = gact::core::LtGuidance::kNearest;
    }

    auto tsub = tr.record("core.tsub_init", req, parent, [&] {
        return std::make_shared<gact::core::TerminatingSubdivision>(
            sc.affine->task.inputs);
    });
    const gact::engine::StableRule& rule = *opt.stable_rule;
    for (std::size_t i = 0; i < opt.subdivision_stages; ++i) {
        tr.record("core.tsub_advance", req, parent, [&] {
            tsub->advance(
                [&rule](const gact::core::SubdividedComplex& cx,
                        const gact::topo::Simplex& s) {
                    return rule.stable(cx, s);
                },
                opt.shard_threads);
        });
    }
    report.tsub = tsub;
    report.witness_depth = static_cast<int>(opt.subdivision_stages);
    const bool empty = tr.record("core.tsub_stable_complex", req, parent, [&] {
        return tsub->stable_complex().is_empty();
    });
    if (empty) {
        report.verdict = Verdict::kBudgetExhausted;
        return report;
    }

    {
        gact::core::AllowedComplexLru lru(opt.solver.allowed_lru_capacity);
        const gact::core::ChromaticMapProblem problem =
            tr.record("core.approx_build", req, parent, [&] {
                return gact::core::lt_approximation_problem(
                    *sc.affine, *tsub, opt.fix_identity, guidance,
                    opt.solver.allowed_lru_capacity > 0 ? &lru : nullptr,
                    opt.nogood_pool.get(), rule.name());
            });
        gact::core::ChromaticMapResult result =
            tr.record("core.csp_search", req, parent, [&] {
                return gact::core::solve_chromatic_map(problem, opt.solver);
            });
        report.counters = result.counters;
        report.total_backtracks = result.counters.backtracks;
        if (!result.map.has_value()) {
            report.verdict = result.exhausted ? Verdict::kUnsolvableAtDepth
                                              : Verdict::kBudgetExhausted;
            return report;
        }
        report.witness = std::move(result.map);
    }

    report.model_runs = tr.record("iis.run_enum", req, parent, [&] {
        return gact::iis::filter_by_model(
            gact::iis::enumerate_stabilized_runs(sc.task.num_processes,
                                                 opt.run_prefix_depth),
            *sc.model);
    });
    if (report.model_runs.empty()) {
        report.verdict = Verdict::kBudgetExhausted;
        return report;
    }
    report.admissibility = tr.record("core.admissibility", req, parent, [&] {
        return gact::core::check_admissibility(*tsub, report.model_runs,
                                               opt.max_landing_round);
    });
    report.verdict = report.admissibility->admissible
                         ? Verdict::kSolvable
                         : Verdict::kUnsolvableAtDepth;
    return report;
}

}  // namespace

void SolveCounts::add(const SolveReport& report) {
    if (report.tsub != nullptr) {
        const auto& tsub = *report.tsub;
        const auto& last =
            tsub.complex_at(tsub.stages() - 1).complex().complex();
        tsub_vertices += last.simplices_of_dimension(0).size();
        tsub_facets += last.simplices_of_dimension(last.dimension()).size();
        stable_simplices += tsub.stable_complex().complex().size();
    }
    backtracks += report.counters.backtracks;
    nogoods_recorded += report.counters.nogoods_recorded;
    cache_hits += report.counters.eval_cache_hits;
    cache_misses += report.counters.eval_cache_misses;
    runs += report.model_runs.size();
    if (report.admissibility.has_value()) {
        runs_checked += report.admissibility->runs_checked;
    }
}

void SolveCounts::emit(Result& result) const {
    result.add("topology.tsub_vertices", tsub_vertices, "count");
    result.add("topology.tsub_facets", tsub_facets, "count");
    result.add("topology.stable_simplices", stable_simplices, "count");
    result.add("core.csp_backtracks", backtracks, "count");
    result.add("core.nogoods_recorded", nogoods_recorded, "count");
    const double lookups = cache_hits + cache_misses;
    result.add("core.eval_cache_hit_ratio",
               lookups > 0 ? cache_hits / lookups : 0.0, "ratio");
    result.add("iis.runs", runs, "count");
    result.add("core.admissibility_runs_checked", runs_checked, "count");
}

void add_layer_metrics(Result& result, const Tracer& tracer,
                       const std::vector<std::int64_t>& passes) {
    std::vector<const char*> spans = {"engine.scenario_build"};
    spans.insert(spans.end(), std::begin(kSolveSpans), std::end(kSolveSpans));
    spans.push_back("engine.report_release");
    for (const char* span : spans) {
        std::vector<double> ms;
        for (std::int64_t pass : passes) {
            ms.push_back(tracer.children_ms(pass, span));
        }
        result.add(std::string(span) + "_ms", median(ms), "ms", passes.size());
    }
    add_unaccounted_share(result, tracer, passes);
}

void add_unaccounted_share(Result& result, const Tracer& tracer,
                           const std::vector<std::int64_t>& passes) {
    std::vector<double> unaccounted;
    for (std::int64_t pass : passes) {
        const double bench = tracer.children_ms(pass, "bench.inspect");
        unaccounted.push_back(1.0 - (tracer.children_ms(pass) - bench) /
                                        (tracer.duration_ms(pass) - bench));
    }
    result.add("engine.unaccounted_share", median(unaccounted), "ratio",
               passes.size());
}

void add_overhead_share(
    Result& result,
    const std::pair<std::vector<double>, std::vector<double>>& pairs) {
    result.add("trace.overhead_share",
               median(pairs.second) / median(pairs.first) - 1.0, "ratio",
               pairs.first.size());
}

SolveReport traced_solve(const Scenario& scenario, Tracer& tracer,
                         std::uint64_t request, std::int64_t parent) {
    return scenario.is_wait_free()
               ? traced_wait_free(scenario, tracer, request, parent)
               : traced_general(scenario, tracer, request, parent);
}

}  // namespace perfbench
