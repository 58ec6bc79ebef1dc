// E5 — Section 9.2 figure: the radial projection f : |K(T)| -> |L_1| and
// the chromatic simplicial approximation delta (Theorem 8.4 in action).
//
// Regenerates the figure's data: f is the identity on R_0 and pushes the
// collar rings onto the boundary of R_0, preserving the faces of s; the
// CSP then finds delta guided by f. The construction runs through the
// engine's general route with the L_t stable rule as a strategy instance
// (engine/general_route.h). Benchmarks exact projections and the
// approximation search.
// Usage: bench_radial_projection [extra_stages] [gbench args...] —
// stabilization stages past Chr^2 (default 2).
#include <benchmark/benchmark.h>

#include <iostream>
#include <optional>

#include "bench_size.h"
#include "engine/general_route.h"
#include "tasks/standard_tasks.h"

namespace {

using namespace gact;

std::size_t g_extra_stages = 2;

struct Figure {
    tasks::AffineTask task = tasks::t_resilience_task(2, 1);
    engine::GeneralWitness witness;

    Figure() {
        witness = engine::build_general_witness(
            task, engine::LtStableRule(2, 1), 2 + g_extra_stages,
            /*fix_identity=*/true, core::LtGuidance::kRadial,
            core::SolverConfig::fast());
    }
};

const Figure& figure() {
    static const Figure f;
    return f;
}

void print_report() {
    std::cout << "=== E5: radial projection + chromatic approximation "
                 "(Section 9.2) ===\n";
    const Figure& f = figure();
    const core::RadialProjection projection(f.task);
    std::size_t fixed = 0;
    std::size_t moved = 0;
    for (topo::VertexId v : f.witness.tsub.stable_complex().vertex_ids()) {
        const topo::BaryPoint& x = f.witness.tsub.stable_position(v);
        const topo::BaryPoint fx = projection.project(x);
        if (fx == x) {
            ++fixed;
        } else {
            ++moved;
        }
    }
    std::cout << "K(T) vertices: " << fixed << " fixed by f (R_0), " << moved
              << " projected onto the R_0 boundary\n";
    std::cout << "boundary edges of |L_1|: "
              << core::l_boundary_edges(f.task).size() << "\n";
    std::cout << "delta: found with " << f.witness.counters.backtracks
              << " CSP backtracks, "
              << f.witness.tsub.stable_complex().vertex_ids().size()
              << " stable vertices mapped\n"
              << std::endl;
}

void BM_RadialProjection(benchmark::State& state) {
    const Figure& f = figure();
    // Built once, as lt_approximation_problem does; the loop times the
    // per-vertex call the candidate order makes.
    const core::RadialProjection projection(f.task);
    // Project a ring-1 vertex (one that actually moves).
    std::optional<topo::BaryPoint> ring;
    for (topo::VertexId v : f.witness.tsub.stable_complex().vertex_ids()) {
        const topo::BaryPoint& q = f.witness.tsub.stable_position(v);
        if (!core::point_in_l(f.task, q)) {
            ring = q;
            break;
        }
    }
    // With one extra stage K(T) is R_0 alone, and f fixes every vertex.
    if (!ring.has_value()) {
        state.SkipWithError("no K(T) vertex outside L at this size");
        return;
    }
    const topo::BaryPoint x = *ring;
    for (auto _ : state) {
        benchmark::DoNotOptimize(projection.project(x));
    }
}
BENCHMARK(BM_RadialProjection);

// One call per stable vertex of K(T), as the candidate order makes them:
// the per-call time is the iteration time over items_processed.
template <typename Call>
void every_stable_vertex(benchmark::State& state, Call call) {
    const Figure& f = figure();
    const std::vector<topo::VertexId> vertices =
        f.witness.tsub.stable_complex().vertex_ids();
    for (auto _ : state) {
        for (topo::VertexId v : vertices) {
            benchmark::DoNotOptimize(call(f.witness.tsub.stable_position(v)));
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(vertices.size()));
}

void BM_RadialProjectionEveryVertex(benchmark::State& state) {
    const core::RadialProjection projection(figure().task);
    every_stable_vertex(state, [&](const topo::BaryPoint& x) {
        return projection.project(x);
    });
}
BENCHMARK(BM_RadialProjectionEveryVertex);

void BM_RadialContainsEveryVertex(benchmark::State& state) {
    const core::RadialProjection projection(figure().task);
    every_stable_vertex(state, [&](const topo::BaryPoint& x) {
        return projection.contains(x);
    });
}
BENCHMARK(BM_RadialContainsEveryVertex);

void BM_PointInL(benchmark::State& state) {
    const Figure& f = figure();
    const topo::BaryPoint center =
        topo::BaryPoint::barycenter(topo::Simplex{0, 1, 2});
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::point_in_l(f.task, center));
    }
}
BENCHMARK(BM_PointInL);

void BM_FullPipelineWithApproximation(benchmark::State& state) {
    const Figure& f = figure();
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine::build_general_witness(
            f.task, engine::LtStableRule(2, 1), 4, true,
            core::LtGuidance::kRadial, core::SolverConfig::fast()));
    }
}
BENCHMARK(BM_FullPipelineWithApproximation)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    g_extra_stages = static_cast<std::size_t>(
        gact::bench::consume_size_arg(argc, argv, 2));
    print_report();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
