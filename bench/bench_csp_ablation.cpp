// E12 (ablation) — the two engines of the chromatic-map solver.
//
// The solver has two engines: fast, and naive as the reference.
// SolverConfig::naive() is the seed's plain backtracker;
// SolverConfig::fast() adds forward checking with MRV/degree variable
// ordering, the constraint-evaluation cache (core/eval_cache.h), nogood
// learning (core/nogood_store.h) and conflict-directed backjumping.
// This bench pits them against each other on the Proposition 9.2
// instance — the chromatic simplicial approximation K(T) -> L_t for
// n = 2, t = 1 — across the two orthogonal problem ablations the seed
// measured: identity fixing of R_0 and radial-projection candidate
// guidance.
//
// Per problem cell it prints one row per engine:
//   naive            — the seed backtracker (the reference);
//   shipped          — SolverConfig::fast();
//   warm re-solve    — the shipped engine re-solving with a
//                      SharedNogoodPool its own cold run populated
//                      (cross-solve nogood reuse).
// Rows report found/exhausted, backtracks, backjumps, nogood
// prunings/recordings, pool seeding, cache hit rates, and wall time;
// the summary lines compare cold vs warm (reuse) and naive vs shipped
// (backtracks and wall time). A cell where one engine proves the
// opposite of what the other found prints "solver bug" (gated by CI).
//
// The per-knob ablations of the removed engine settings (plain FC, the
// cache and learning rungs, the portfolio race, the mid-flight
// exchange, Luby restarts, GC off) are kept as historical tables in
// docs/PERFORMANCE.md.
//
// Usage: bench_csp_ablation [extra_stages] [gbench args...]
// `extra_stages` (default 2) is the number of stabilization stages past
// Chr^2; CI smoke-runs pass 1, so the default instance (the source of
// the ROADMAP backtrack numbers) only runs when invoked by hand.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "bench_size.h"
#include "core/lt_pipeline.h"

namespace {

using namespace gact;
using core::ChromaticMapProblem;
using core::LtGuidance;
using core::SolverConfig;
using core::TerminatingSubdivision;

std::size_t g_extra_stages = 2;

struct Instance {
    tasks::AffineTask task = tasks::t_resilience_task(2, 1);
    TerminatingSubdivision tsub;

    Instance() {
        tsub = TerminatingSubdivision(
            topo::ChromaticComplex::standard_simplex(2));
        const auto nothing = [](const topo::SubdividedComplex&,
                                const topo::Simplex&) { return false; };
        tsub.advance(nothing);
        tsub.advance(nothing);
        for (std::size_t i = 0; i < g_extra_stages; ++i) {
            tsub.advance([](const topo::SubdividedComplex& cx,
                            const topo::Simplex& s) {
                return core::lt_stable_rule(2, 1, cx, s);
            });
        }
    }

    ChromaticMapProblem problem(bool fix_identity, bool guide,
                                core::SharedNogoodPool* pool = nullptr) const {
        return core::lt_approximation_problem(
            task, tsub, fix_identity,
            guide ? LtGuidance::kRadial : LtGuidance::kNone, nullptr, pool);
    }
};

const Instance& instance() {
    static const Instance i;
    return i;
}

struct Cell {
    bool found = false;
    bool exhausted = false;
    double millis = 0.0;
    core::SearchCounters counters;
};

Cell run_cell(const ChromaticMapProblem& problem, const SolverConfig& config) {
    const auto start = std::chrono::steady_clock::now();
    const auto result = core::solve_chromatic_map(problem, config);
    const auto end = std::chrono::steady_clock::now();
    Cell cell;
    cell.found = result.map.has_value();
    cell.exhausted = result.exhausted;
    cell.millis =
        std::chrono::duration<double, std::milli>(end - start).count();
    cell.counters = result.counters;
    return cell;
}

void print_cell(const char* engine, const Cell& c) {
    const core::SearchCounters& n = c.counters;
    std::cout << "    " << engine << ": "
              << (c.found ? "found" : "NOT found") << ", " << n.backtracks
              << " backtracks, " << c.millis << " ms";
    if (n.backjumps != 0) std::cout << ", " << n.backjumps << " backjumps";
    if (n.nogoods_recorded != 0 || n.nogood_prunings != 0) {
        std::cout << ", nogoods " << n.nogoods_recorded << " recorded / "
                  << n.nogood_prunings << " prunings";
    }
    if (n.pool_seeded != 0) {
        std::cout << ", pool " << n.pool_seeded << " seeded";
    }
    if (n.eval_cache_hits + n.eval_cache_misses != 0) {
        const double rate =
            100.0 * static_cast<double>(n.eval_cache_hits) /
            static_cast<double>(n.eval_cache_hits + n.eval_cache_misses);
        std::cout << ", cache " << static_cast<int>(rate) << "% hits";
    }
    std::cout << (c.exhausted || c.found ? "" : " (budget hit)") << "\n";
}

void print_report() {
    std::cout << "=== E12 (ablation): chromatic-map solver engines on the "
                 "L_t (n=2, t=1) approximation (extra_stages="
              << g_extra_stages << ") ===\n";
    const Instance& inst = instance();
    struct Config {
        const char* name;
        bool fix;
        bool guide;
        std::size_t budget;
    };
    const Config configs[] = {
        {"identity-fixed + radial guidance (shipped)", true, true, 2000000},
        {"identity-fixed, unguided candidates", true, false, 2000000},
        {"free R_0 (no fixing), radial guidance", false, true, 2000000},
    };
    for (const Config& c : configs) {
        const auto problem = inst.problem(c.fix, c.guide);
        std::cout << c.name << ":\n";
        const Cell naive =
            run_cell(problem, SolverConfig::naive(c.budget));
        print_cell("naive (reference)          ", naive);
        const Cell fast = run_cell(problem, SolverConfig::fast(c.budget));
        print_cell("shipped (fast)             ", fast);
        // Cross-solve reuse: the shipped engine against a pool its own
        // cold run populated (the cold run repeats the `fast` cell, plus
        // publishing).
        core::SharedNogoodPool pool;
        const auto pooled_problem = inst.problem(c.fix, c.guide, &pool);
        const Cell cold = run_cell(pooled_problem, SolverConfig::fast(c.budget));
        const Cell warm = run_cell(pooled_problem, SolverConfig::fast(c.budget));
        print_cell("warm re-solve (shared pool)", warm);

        if (cold.found == warm.found && cold.exhausted == warm.exhausted) {
            std::cout << "    nogood reuse: cold "
                      << cold.counters.backtracks << " -> warm "
                      << warm.counters.backtracks << " backtracks ("
                      << warm.counters.pool_seeded
                      << " nogoods seeded from the " << "pool)\n";
        }
        // The engines must agree on what is found; a divergence is a
        // solver bug ONLY when the not-found side proved
        // unsatisfiability (exhausted) — a budget-limited engine losing
        // to the other is legitimate.
        const auto settled_disagree = [](const Cell& a, const Cell& b) {
            return a.found != b.found && (a.found ? b.exhausted : a.exhausted);
        };
        if (settled_disagree(naive, fast) || settled_disagree(naive, warm) ||
            settled_disagree(fast, warm)) {
            // One engine proved the opposite of what the other found.
            std::cout << "    old-vs-new: engines DISAGREE on "
                         "satisfiability — solver bug\n";
        } else if (naive.found != fast.found) {
            const char* loser = naive.found ? "shipped" : "naive";
            const Cell& found_cell = naive.found ? naive : fast;
            const Cell& lost_cell = naive.found ? fast : naive;
            std::cout << "    old-vs-new: " << loser
                      << " inconclusive at its budget ("
                      << lost_cell.counters.backtracks
                      << " backtracks); the other engine found a witness at "
                      << found_cell.counters.backtracks << "\n";
        } else if (!naive.found && !naive.exhausted && !fast.exhausted) {
            // Neither engine settled the instance: budget-truncated
            // backtrack counts measure the budget, not the engines.
            std::cout << "    old-vs-new: both inconclusive (budgets "
                         "exhausted without a witness or a refutation); "
                         "backtrack counts not comparable\n";
        } else if (!naive.found && naive.exhausted != fast.exhausted) {
            const char* settled = naive.exhausted ? "naive" : "shipped";
            const char* hit = naive.exhausted ? "shipped" : "naive";
            std::cout << "    old-vs-new: " << settled
                      << " proved unsatisfiability; " << hit
                      << " budgeted out (counts not comparable)\n";
        } else {
            const std::size_t old_bt = naive.counters.backtracks;
            const std::size_t new_bt = fast.counters.backtracks;
            std::cout << "    old-vs-new: " << old_bt << " -> " << new_bt
                      << " backtracks ("
                      << (new_bt < old_bt ? "strictly fewer"
                                          : new_bt == old_bt
                                                ? "equal"
                                                : "MORE — regression")
                      << "), " << naive.millis << " -> " << fast.millis
                      << " ms\n";
        }
    }
    std::cout << std::endl;
}

void BM_SolverNaive(benchmark::State& state) {
    const Instance& inst = instance();
    const auto problem = inst.problem(true, true);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::solve_chromatic_map(problem, SolverConfig::naive()));
    }
}
BENCHMARK(BM_SolverNaive)->Unit(benchmark::kMillisecond);

void BM_SolverFast(benchmark::State& state) {
    const Instance& inst = instance();
    const auto problem = inst.problem(true, true);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::solve_chromatic_map(problem, SolverConfig::fast()));
    }
}
BENCHMARK(BM_SolverFast)->Unit(benchmark::kMillisecond);

void BM_SolverFastUnguided(benchmark::State& state) {
    const Instance& inst = instance();
    const auto problem = inst.problem(true, false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::solve_chromatic_map(problem, SolverConfig::fast(2000000)));
    }
}
BENCHMARK(BM_SolverFastUnguided)->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_SolverFastNoFixing(benchmark::State& state) {
    const Instance& inst = instance();
    const auto problem = inst.problem(false, true);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::solve_chromatic_map(problem, SolverConfig::fast(2000000)));
    }
}
BENCHMARK(BM_SolverFastNoFixing)->Iterations(3)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    g_extra_stages = static_cast<std::size_t>(
        gact::bench::consume_size_arg(argc, argv, 2));
    print_report();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
