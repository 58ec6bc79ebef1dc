// E13 — batched scenario solving: Engine::solve_batch, 1 thread vs N.
//
// The batch is the registry's standard quick sweep grid
// (ScenarioRegistry::quick_grid — every scenario family expanded at
// cheap parameter points, the same ~22 cells `gact sweep --preset
// quick` runs): independent solvability questions of very different
// sizes (microsecond depth-0 witnesses up to the L_t pipeline), exactly
// the shape the self-scheduling shard pool targets: long solves overlap
// short ones instead of serializing. The report runs the grid
// sequentially and then sharded, and prints the speedup; reports are
// verified identical across the two runs.
//
// Usage: bench_engine_batch [num_scenarios] [gbench args...] — cap on how
// many grid cells run (default 0 = all; CI smoke passes 1).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <thread>

#include "bench_size.h"
#include "engine/engine.h"
#include "engine/scenario_registry.h"

namespace {

using namespace gact;

std::size_t g_num_scenarios = 0;  // 0 = the whole quick sweep grid

std::vector<engine::Scenario> scenarios() {
    std::vector<engine::Scenario> out =
        engine::ScenarioRegistry::standard().quick_grid();
    if (g_num_scenarios != 0 && g_num_scenarios < out.size()) {
        out.resize(g_num_scenarios);
    }
    return out;
}

unsigned shard_width() {
    // At least 2 so the sharded leg always exercises the pool, capped at
    // 4 to keep the report stable across large machines.
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 2u, 4u);
}

double run_batch(const engine::Engine& engine,
                 const std::vector<engine::Scenario>& batch,
                 unsigned threads,
                 std::vector<engine::SolveReport>& reports) {
    const auto start = std::chrono::steady_clock::now();
    reports = engine.solve_batch(batch, threads);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void print_report() {
    const auto batch = scenarios();
    const unsigned threads = shard_width();
    std::cout << "=== E13: Engine::solve_batch on " << batch.size()
              << " sweep grid cells, 1 thread vs " << threads << " ===\n";
    const engine::Engine engine;

    std::vector<engine::SolveReport> sequential;
    const double t1 = run_batch(engine, batch, 1, sequential);
    std::vector<engine::SolveReport> sharded;
    const double tn = run_batch(engine, batch, threads, sharded);

    // Reports carry wall times, so compare everything but the timings
    // (witnesses as vertex maps).
    bool identical = sequential.size() == sharded.size();
    for (std::size_t i = 0; identical && i < sequential.size(); ++i) {
        identical =
            sequential[i].scenario == sharded[i].scenario &&
            sequential[i].verdict == sharded[i].verdict &&
            sequential[i].detail == sharded[i].detail &&
            sequential[i].witness_depth == sharded[i].witness_depth &&
            sequential[i].total_backtracks == sharded[i].total_backtracks &&
            sequential[i].backtracks_per_depth ==
                sharded[i].backtracks_per_depth &&
            sequential[i].witness.has_value() ==
                sharded[i].witness.has_value() &&
            (!sequential[i].witness.has_value() ||
             sequential[i].witness->vertex_map() ==
                 sharded[i].witness->vertex_map()) &&
            sequential[i].model_runs.size() == sharded[i].model_runs.size();
    }
    for (const auto& report : sequential) {
        std::cout << "  " << report.summary() << "\n";
    }
    std::cout << "sequential: " << t1 << " ms; sharded x" << threads << ": "
              << tn << " ms; speedup " << (tn > 0 ? t1 / tn : 0.0) << "x; "
              << "reports identical: " << (identical ? "yes" : "NO — BUG")
              << "\n"
              << std::endl;
}

void BM_BatchSequential(benchmark::State& state) {
    const auto batch = scenarios();
    const engine::Engine engine;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.solve_batch(batch, 1));
    }
}
BENCHMARK(BM_BatchSequential)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_BatchSharded(benchmark::State& state) {
    const auto batch = scenarios();
    const engine::Engine engine;
    const unsigned threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.solve_batch(batch, threads));
    }
}
BENCHMARK(BM_BatchSharded)->Arg(2)->Arg(4)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    g_num_scenarios = static_cast<std::size_t>(
        gact::bench::consume_size_arg(argc, argv, 0));
    print_report();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
