// E3 — Section 9.2 figure: the complex L_1 for n = 2, and the L_t family.
//
// Regenerates the figure's data: facet counts of L_t per (n, t), the
// emptiness pattern of Delta on faces, and the link-connectedness
// verdicts the paper relies on (L_t link-connected; L_ord not).
// Benchmarks the construction of L_t with its Delta images (n = 2 and
// 3) and the link-connectedness decision (L_1 at n = 2, L_2 at n = 3).
// Usage: bench_lt_complex [max_n] [gbench args...] — default 3; values
// below 3 skip the heavy n=3 section of the report, values above 3
// behave like 3 (the n=2 and n=3 sections are the implemented cases).
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_size.h"
#include "tasks/standard_tasks.h"
#include "topology/connectivity.h"

namespace {

using namespace gact;

int g_max_n = 3;

void print_report() {
    std::cout << "=== E3: the t-resilience task L_t (Section 9.2 figure) "
                 "===\n";
    for (int t = 0; t <= 2; ++t) {
        const tasks::AffineTask lt = tasks::t_resilience_task(2, t);
        const auto report = topo::check_link_connected(lt.l_complex);
        std::cout << "n=2, t=" << t << ": " << lt.l_complex.facets().size()
                  << " facets, " << report.to_string() << "\n";
    }
    const tasks::AffineTask l1 = tasks::t_resilience_task(2, 1);
    std::cout << "L_1 Delta images: corners empty="
              << l1.task.delta.at(topo::Simplex{0}).is_empty()
              << ", edge {0,1} facets="
              << l1.task.delta.at(topo::Simplex{0, 1}).facets().size()
              << ", full=" << l1.task.delta.at(topo::Simplex{0, 1, 2})
                                  .facets()
                                  .size()
              << "\n";
    if (g_max_n >= 3) {
        for (int t = 1; t <= 3; ++t) {
            const tasks::AffineTask lt = tasks::t_resilience_task(3, t);
            std::cout << "n=3, t=" << t << ": "
                      << lt.l_complex.facets().size() << " facets, "
                      << topo::check_link_connected(lt.l_complex).to_string()
                      << "\n";
        }
    }
    const tasks::AffineTask lord = tasks::total_order_task(2);
    std::cout << "contrast: L_ord is "
              << topo::check_link_connected(lord.l_complex).to_string()
              << "\n"
              << std::endl;
}

void BM_BuildLt(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const int t = static_cast<int>(state.range(1));
    for (auto _ : state) {
        benchmark::DoNotOptimize(tasks::t_resilience_task(n, t));
    }
}
BENCHMARK(BM_BuildLt)
    ->ArgNames({"n", "t"})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({3, 1})
    ->Args({3, 2})
    ->Args({3, 3})
    ->Unit(benchmark::kMillisecond);

void BM_LinkConnectedDecision(benchmark::State& state) {
    const tasks::AffineTask lt = tasks::t_resilience_task(
        static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(topo::check_link_connected(lt.l_complex));
    }
}
BENCHMARK(BM_LinkConnectedDecision)
    ->ArgNames({"n", "t"})
    ->Args({2, 1})
    ->Args({3, 2})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    g_max_n = static_cast<int>(gact::bench::consume_size_arg(argc, argv, 3));
    print_report();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
