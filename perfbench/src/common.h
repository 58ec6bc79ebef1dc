// Shared pieces of the perfbench harness: the run options, sample
// statistics, the result a workload hands back, and the in-memory span
// recorder of the traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ms_since(Clock::time_point start) {
    return seconds_since(start) * 1e3;
}

/// What the command line pins for one run of one workload.
struct RunOptions {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /// min(4, CPUs this process may run on): the exec pool size and the
    /// batch parallelism of every workload that runs parallel work.
    unsigned threads = 1;
    /// Where the traced run writes its spans ("" = nowhere).
    std::string trace_out;
};

/// Median of a non-empty sample.
double median(std::vector<double> values);

/// The p-quantile (0 <= p <= 1), linear between order statistics, of a
/// sample with at least ten values beyond it (checked: a percentile with
/// fewer samples behind it is noise, see README.md).
double percentile(std::vector<double> values, double p);

/// One reported number: name, value, unit and how many samples it is
/// the median (or percentile) of. Counts and ratios use samples = 1.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
};

/// Everything a workload run hands back to main().
struct Result {
    /// Operations attempted and failed (a failed solve, a non-ok reply,
    /// a violating schedule).
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /// Golden-check mismatches; any entry makes the run incorrect.
    std::vector<std::string> mismatches;
    /// Metrics that go into the final JSON line.
    std::vector<Metric> metrics;
    /// Extra lines printed for humans only: workload-native names
    /// (solve_s, cells_per_s, ...), pinned counts, percentiles.
    std::vector<Metric> notes;

    void check(bool ok, const std::string& what) {
        if (!ok) mismatches.push_back(what);
    }
    void add(std::string name, double value, std::string unit,
             std::size_t samples = 1) {
        metrics.push_back({std::move(name), value, std::move(unit), samples});
    }
    void note(std::string name, double value, std::string unit,
              std::size_t samples = 1) {
        notes.push_back({std::move(name), value, std::move(unit), samples});
    }
};

/// Wall times of a run's samples and of the set-ups before them.
struct Samples {
    std::vector<double> times;   // seconds per fixed-work sample
    std::vector<double> setups;  // seconds per set-up
};

/// Alternate `setup` and `sample` (one fixed unit of work that returns
/// its wall time in seconds): one untimed warm-up round, then rounds
/// until `seconds` have been measured and at least `min_samples` were
/// taken. A set-up before every sample spreads the set-ups over the run,
/// so setup_s is the median under the same host conditions as the
/// samples.
Samples take_samples(double seconds, std::size_t min_samples,
                     const std::function<void()>& setup,
                     const std::function<double()>& sample);

/// After one untimed plain warm-up pass, alternate (plain, traced) pairs
/// of one pass until `seconds` have been measured and at least
/// `min_pairs` were taken. Returns the plain and the traced pass times.
std::pair<std::vector<double>, std::vector<double>> take_pairs(
    double seconds, std::size_t min_pairs, const std::function<double()>& plain,
    const std::function<double()>& traced);

/// Restrict the calling thread, and every thread it creates afterwards,
/// to the first `count` CPUs it may run on; returns how many it got.
unsigned pin_to_cpus(unsigned count);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// In-memory span recorder for the traced run. A span is one call into
/// a library layer made by the benchmark: its layer name, the request
/// (pass) it belongs to, the span that caused it, and start/end times.
/// Spans stay in memory and are written out once, at exit.
class Tracer {
public:
    struct Span {
        const char* name;
        std::uint64_t request;
        std::int64_t parent;  // index of the causing span, -1 for a root
        double start_us;
        double end_us;
    };

    Tracer() : epoch_(Clock::now()) {}

    /// Open a span; returns its index for close() and as a parent.
    std::int64_t open(const char* name, std::uint64_t request,
                      std::int64_t parent);
    void close(std::int64_t index);

    /// Time `fn()` as a span and return its result.
    template <typename Fn>
    auto record(const char* name, std::uint64_t request, std::int64_t parent,
                Fn&& fn) {
        const std::int64_t index = open(name, request, parent);
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            close(index);
        } else {
            auto result = fn();
            close(index);
            return result;
        }
    }

    double duration_ms(std::int64_t index) const {
        const Span& s = spans_[static_cast<std::size_t>(index)];
        return (s.end_us - s.start_us) / 1e3;
    }
    /// Sum of the durations of `parent`'s direct children named `name`
    /// (every child when `name` is null).
    double children_ms(std::int64_t parent, const char* name = nullptr) const;

    /// Write every span as one JSON object per line to `path`; throws
    /// std::runtime_error when the file cannot be written.
    void write(const std::string& path) const;

private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

}  // namespace perfbench
