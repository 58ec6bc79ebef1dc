// gact_perfbench — one workload of the repository benchmark per process.
//
// Usage: gact_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       [--trace-out FILE]
//   NAME: heavy-solve | grid-sweep | serve-mix | fuzz-campaign
//
// Prints host facts, one line per metric (name, value, unit, sample
// count), any golden mismatch, and as the last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones of a separate traced run. Exit code 0 when every output
// matched its golden, 1 on a mismatch, 2 on bad usage or a harness error
// (no result line then).
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Result;
using perfbench::RunOptions;

/// CPUs this process may run on (what nproc prints).
unsigned available_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload heavy-solve|grid-sweep|serve-mix|"
                 "fuzz-campaign --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n",
                 argv0);
    return 2;
}

void print_metric(const char* kind, const perfbench::Metric& m) {
    std::printf("%s %s = %.6g %s (n=%zu)\n", kind, m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
}

}  // namespace

int main(int argc, char** argv) {
    RunOptions o;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* value = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            o.workload = value;
        } else if (key == "--seed") {
            o.seed = std::strtoull(value, &end, 10);
            have_seed = end != value && *end == '\0';
        } else if (key == "--seconds") {
            o.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(o.seconds > 0)) {
                return usage(argv[0]);
            }
        } else if (key == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
                return usage(argv[0]);
            }
            o.trace = value[0] == '1';
        } else if (key == "--trace-out") {
            o.trace_out = value;
        } else {
            return usage(argv[0]);
        }
    }
    if (argc % 2 != 1 || !have_seed) return usage(argv[0]);

    Result (*run)(const RunOptions&) = nullptr;
    if (o.workload == "heavy-solve") run = perfbench::run_heavy_solve;
    if (o.workload == "grid-sweep") run = perfbench::run_grid_sweep;
    if (o.workload == "serve-mix") run = perfbench::run_serve_mix;
    if (o.workload == "fuzz-campaign") run = perfbench::run_fuzz_campaign;
    if (run == nullptr) return usage(argv[0]);

    // Pin the exec pool before anything can create it.
    o.threads = std::min(4u, available_cpus());
    setenv("GACT_EXEC_THREADS", std::to_string(o.threads).c_str(), 1);
    std::printf("host nproc=%u compiler=\"%s\" build_type=%s\n",
                available_cpus(), __VERSION__, PERFBENCH_BUILD_TYPE);
    std::printf("run workload=%s seed=%llu seconds=%g trace=%d threads=%u\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, o.threads);
    std::fflush(stdout);

    Result r;
    try {
        r = run(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gact_perfbench: %s\n", e.what());
        return 2;
    }
    if (o.trace) {
        r.add("error_rate",
              r.attempted == 0 ? 0.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted),
              "ratio", r.attempted);
    }

    for (const perfbench::Metric& m : r.notes) print_metric("note", m);
    for (const perfbench::Metric& m : r.metrics) print_metric("metric", m);
    for (const std::string& m : r.mismatches) {
        std::printf("MISMATCH %s\n", m.c_str());
    }
    const bool correct = r.mismatches.empty() && r.failed == 0 &&
                         r.attempted > 0;
    std::string metrics;
    for (const perfbench::Metric& m : r.metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "gact_perfbench: %s is not finite\n",
                         m.name.c_str());
            return 2;
        }
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name +
                   "\": {\"value\": " + value + ", \"unit\": \"" + m.unit +
                   "\"}";
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": {%s}}\n",
        correct ? "true" : "false", r.attempted, r.failed, metrics.c_str());
    return correct ? 0 : 1;
}
