// heavy-solve and grid-sweep: the two Engine workloads.
//
// heavy-solve times repeated Engine::solve calls of lt-3-2-res2 — the
// terminating subdivision dominates, admissibility is never reached.
// grid-sweep times Engine::solve_batch over the quick grid repeated
// kGridRepeats times at the pinned thread count, with no shared pool —
// admissibility and the approximation build dominate, subdivision is
// small, and exec batch parallelism sits on top.
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "engine/report_json.h"
#include "engine/scenario_registry.h"
#include "exec/scheduler.h"
#include "goldens.h"
#include "traced_solve.h"
#include "workloads.h"

namespace perfbench {

using gact::engine::Engine;
using gact::engine::Scenario;
using gact::engine::ScenarioRegistry;
using gact::engine::SolveReport;
using gact::engine::Verdict;

namespace {

constexpr const char* kHeavyScenario = "lt-3-2-res2";
constexpr std::size_t kGridRepeats = 4;

/// Time `solve()` plus the release of its report, the whole cost a
/// caller pays; `inspect` runs untimed in between.
template <typename Solve, typename Inspect>
double timed_with_release(Solve&& solve, Inspect&& inspect) {
    auto start = Clock::now();
    auto reports = solve();
    double seconds = seconds_since(start);
    inspect(reports);
    start = Clock::now();
    { auto released = std::move(reports); }
    return seconds + seconds_since(start);
}

Scenario heavy_scenario(unsigned threads) {
    std::optional<Scenario> sc = ScenarioRegistry::standard().find(kHeavyScenario);
    if (!sc.has_value()) throw std::runtime_error("heavy scenario missing");
    sc->options.shard_threads = threads;
    return std::move(*sc);
}

/// The heavy-solve golden: an exhausted search over a subdivision of
/// pinned size. `full` also counts the last stage's vertices and facets,
/// which costs a walk of the complex — done outside every timed span.
void check_heavy(Result& r, const SolveReport& rep, bool full) {
    ++r.attempted;
    const auto& g = goldens::kHeavy;
    if (rep.verdict != Verdict::kUnsolvableAtDepth || rep.tsub == nullptr) {
        ++r.failed;
        r.check(false, std::string("heavy-solve verdict ") +
                           gact::engine::to_string(rep.verdict) +
                           ", expected an exhausted search");
        return;
    }
    const auto& tsub = *rep.tsub;
    const std::size_t stable = tsub.stable_complex().complex().size();
    std::string counts = std::to_string(tsub.stages()) + " stages, " +
                         std::to_string(stable) + " stable simplices, " +
                         std::to_string(rep.total_backtracks) + " backtracks";
    bool ok = tsub.stages() == g.stages && stable == g.stable_simplices &&
              rep.total_backtracks == g.backtracks;
    if (full) {
        const auto& last =
            tsub.complex_at(tsub.stages() - 1).complex().complex();
        const std::size_t vertices = last.simplices_of_dimension(0).size();
        const std::size_t facets =
            last.simplices_of_dimension(last.dimension()).size();
        counts += ", last stage " + std::to_string(vertices) +
                  " vertices / " + std::to_string(facets) + " facets";
        ok = ok && vertices == g.last_vertices && facets == g.last_facets;
    }
    r.check(ok, "heavy-solve golden counts differ: " + counts);
}

}  // namespace

Result run_heavy_solve(const RunOptions& o) {
    Result r;
    Engine engine;
    r.note("pinned.exec_threads", o.threads, "threads");
    r.note("pinned.shard_threads", o.threads, "threads");

    if (!o.trace) {
        std::optional<Scenario> sc;
        const Samples s = take_samples(
            o.seconds, 2,
            [&] {
                sc.reset();
                sc = heavy_scenario(o.threads);
            },
            [&] {
                return timed_with_release(
                    [&] { return engine.solve(*sc); },
                    [&](const SolveReport& rep) { check_heavy(r, rep, true); });
            });
        const double solve_s = median(s.times);
        r.add("latency_ms", solve_s * 1e3, "ms", s.times.size());
        r.add("throughput_per_s", 1.0 / solve_s, "1/s", s.times.size());
        r.add("setup_s", median(s.setups), "s", s.setups.size());
        r.add("peak_rss_mb", peak_rss_mb(), "MB");
        r.note("solve_s", solve_s, "s", s.times.size());
        return r;
    }

    // Traced run: a pass is the named scenario built, solved, inspected
    // and released — the calls Engine::solve makes, one span each —
    // against a plain pass of the same work through Engine::solve.
    Tracer tracer;
    std::vector<std::int64_t> passes;
    SolveCounts counts;
    // A pair is two ~8 s passes: one pair fits half the run length.
    const auto pairs = take_pairs(
        o.seconds / 2, 1,
        [&] {
            const auto start = Clock::now();
            auto s = std::make_unique<Scenario>(heavy_scenario(o.threads));
            auto rep = std::make_unique<SolveReport>(engine.solve(*s));
            check_heavy(r, *rep, false);
            SolveCounts{}.add(*rep);
            rep.reset();
            s.reset();
            return seconds_since(start);
        },
        [&] {
            const std::uint64_t req = passes.size();
            const auto start = Clock::now();
            const std::int64_t pass = tracer.open("pass", req, -1);
            auto s = std::make_unique<Scenario>(
                tracer.record("engine.scenario_build", req, pass,
                              [&] { return heavy_scenario(o.threads); }));
            auto rep = std::make_unique<SolveReport>(
                traced_solve(*s, tracer, req, pass));
            tracer.record("bench.inspect", req, pass, [&] {
                check_heavy(r, *rep, false);
                counts = SolveCounts{};
                counts.add(*rep);
            });
            tracer.record("engine.report_release", req, pass, [&] {
                rep.reset();
                s.reset();
            });
            tracer.close(pass);
            passes.push_back(pass);
            return seconds_since(start);
        });
    counts.emit(r);
    add_layer_metrics(r, tracer, passes);
    add_overhead_share(r, pairs);
    if (!o.trace_out.empty()) tracer.write(o.trace_out);
    return r;
}

namespace {

/// The grid-sweep golden: every solvable cell's witness digest and the
/// verdict tally of each grid copy.
void check_grid(Result& r, const std::vector<SolveReport>& reports) {
    std::size_t solvable = 0;
    std::size_t unsolvable = 0;
    for (const SolveReport& rep : reports) {
        ++r.attempted;
        const auto golden = goldens::kGridDigests.find(rep.scenario);
        if (rep.verdict == Verdict::kSolvable) {
            ++solvable;
            const std::string digest =
                rep.witness.has_value()
                    ? gact::engine::witness_digest_hex(*rep.witness)
                    : "";
            if (golden == goldens::kGridDigests.end() ||
                golden->second != digest) {
                ++r.failed;
                r.check(false, "grid-sweep " + rep.scenario + " digest " +
                                   digest + " differs from its golden");
            }
        } else if (rep.verdict == Verdict::kUnsolvableAtDepth &&
                   golden == goldens::kGridDigests.end()) {
            ++unsolvable;
        } else {
            ++r.failed;
            r.check(false, "grid-sweep " + rep.scenario + " verdict " +
                               gact::engine::to_string(rep.verdict));
        }
    }
    const std::size_t copies = reports.size() / goldens::kGridCells;
    r.check(reports.size() == copies * goldens::kGridCells &&
                solvable == copies * goldens::kGridSolvable &&
                unsolvable == copies * goldens::kGridUnsolvable,
            "grid-sweep verdict tally " + std::to_string(solvable) + "/" +
                std::to_string(unsolvable) + " over " +
                std::to_string(reports.size()) + " cells");
}

std::vector<Scenario> repeated_grid(const std::vector<Scenario>& grid) {
    std::vector<Scenario> batch;
    for (std::size_t i = 0; i < kGridRepeats; ++i) {
        batch.insert(batch.end(), grid.begin(), grid.end());
    }
    return batch;
}

/// Exec-layer counters of one solve_batch on the shared scheduler, with
/// the deepest queue a 1 ms poller saw while it ran.
void measure_exec(Result& r, const std::vector<Scenario>& batch,
                  unsigned threads) {
    gact::exec::Scheduler& pool = gact::exec::Scheduler::shared();
    const gact::exec::ExecStats before = pool.stats();
    std::size_t depth_max = 0;
    const auto start = Clock::now();
    std::vector<SolveReport> reports;
    {
        const std::jthread poller([&](const std::stop_token& stop) {
            while (!stop.stop_requested()) {
                depth_max = std::max(depth_max, pool.stats().queue_depth);
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
        reports = Engine{}.solve_batch(batch, threads);
    }  // stops and joins the poller
    const double wall_ms = ms_since(start);
    const gact::exec::ExecStats after = pool.stats();
    check_grid(r, reports);
    double stage_ms = 0.0;
    for (const SolveReport& rep : reports) {
        for (const auto& t : rep.timings) stage_ms += t.millis;
    }
    r.add("exec.tasks_executed", after.tasks_executed - before.tasks_executed,
          "count");
    r.add("exec.tasks_stolen", after.tasks_stolen - before.tasks_stolen,
          "count");
    r.add("exec.tasks_helped", after.tasks_helped - before.tasks_helped,
          "count");
    r.add("exec.queue_depth_max", depth_max, "count");
    r.add("exec.batch_efficiency", stage_ms / (threads * wall_ms), "ratio");
}

}  // namespace

Result run_grid_sweep(const RunOptions& o) {
    Result r;
    const ScenarioRegistry& registry = ScenarioRegistry::standard();
    r.note("pinned.exec_threads", o.threads, "threads");
    r.note("pinned.batch_threads", o.threads, "threads");
    r.note("grid.cells_per_batch", kGridRepeats * goldens::kGridCells,
           "count");

    if (!o.trace) {
        const Engine engine;
        std::vector<Scenario> grid;
        const Samples s = take_samples(
            o.seconds, 3,
            [&] {
                grid.clear();
                grid = registry.quick_grid();
            },
            [&] {
                const std::vector<Scenario> batch = repeated_grid(grid);
                return timed_with_release(
                    [&] { return engine.solve_batch(batch, o.threads); },
                    [&](const std::vector<SolveReport>& reports) {
                        check_grid(r, reports);
                    });
            });
        const double batch_s = median(s.times);
        const double cells_per_s =
            static_cast<double>(kGridRepeats * goldens::kGridCells) / batch_s;
        r.add("latency_ms", batch_s * 1e3, "ms", s.times.size());
        r.add("throughput_per_s", cells_per_s, "1/s", s.times.size());
        r.add("setup_s", median(s.setups), "s", s.setups.size());
        r.add("peak_rss_mb", peak_rss_mb(), "MB");
        r.note("cells_per_s", cells_per_s, "1/s", s.times.size());
        return r;
    }

    // Traced run: a pass is one copy of the grid built, then every cell
    // solved, inspected and released in order on this thread — layer
    // spans add up to the pass wall only without parallelism. The exec
    // layer is measured on its own, over one real batch.
    Tracer tracer;
    std::vector<std::int64_t> passes;
    SolveCounts counts;
    const Engine engine;
    const auto pairs = take_pairs(
        o.seconds, 1,
        [&] {
            const auto start = Clock::now();
            auto grid = std::make_unique<std::vector<Scenario>>(
                registry.quick_grid());
            std::vector<SolveReport> reports;
            for (const Scenario& s : *grid) {
                reports.push_back(engine.solve(s));
                SolveCounts{}.add(reports.back());
            }
            check_grid(r, reports);
            reports.clear();
            grid.reset();
            return seconds_since(start);
        },
        [&] {
            const std::uint64_t req = passes.size();
            const auto start = Clock::now();
            const std::int64_t pass = tracer.open("pass", req, -1);
            auto grid = std::make_unique<std::vector<Scenario>>(
                tracer.record("engine.scenario_build", req, pass,
                              [&] { return registry.quick_grid(); }));
            std::vector<SolveReport> reports;
            counts = SolveCounts{};
            for (const Scenario& s : *grid) {
                reports.push_back(traced_solve(s, tracer, req, pass));
                tracer.record("bench.inspect", req, pass,
                              [&] { counts.add(reports.back()); });
            }
            tracer.record("bench.inspect", req, pass,
                          [&] { check_grid(r, reports); });
            tracer.record("engine.report_release", req, pass, [&] {
                reports.clear();
                grid.reset();
            });
            tracer.close(pass);
            passes.push_back(pass);
            return seconds_since(start);
        });
    measure_exec(r, repeated_grid(registry.quick_grid()), o.threads);
    counts.emit(r);
    add_layer_metrics(r, tracer, passes);
    add_overhead_share(r, pairs);
    if (!o.trace_out.empty()) tracer.write(o.trace_out);
    return r;
}

}  // namespace perfbench
