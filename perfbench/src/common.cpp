#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) throw std::logic_error("median of no samples");
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : (values[mid - 1] + values[mid]) / 2.0;
}

double percentile(std::vector<double> values, double p) {
    const double beyond = (1.0 - p) * static_cast<double>(values.size());
    if (values.empty() || beyond < 10.0) {
        throw std::logic_error("percentile without ten samples beyond it");
    }
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

Samples take_samples(double seconds, std::size_t min_samples,
                     const std::function<void()>& setup,
                     const std::function<double()>& sample) {
    setup();   // warm-up: caches, allocator arenas, lazy singletons
    sample();
    Samples out;
    const auto start = Clock::now();
    while (out.times.size() < min_samples || seconds_since(start) < seconds) {
        const auto setup_start = Clock::now();
        setup();
        out.setups.push_back(seconds_since(setup_start));
        out.times.push_back(sample());
    }
    return out;
}

std::pair<std::vector<double>, std::vector<double>> take_pairs(
    double seconds, std::size_t min_pairs, const std::function<double()>& plain,
    const std::function<double()>& traced) {
    plain();  // warm-up
    std::pair<std::vector<double>, std::vector<double>> times;
    const auto start = Clock::now();
    while (times.first.size() < min_pairs || seconds_since(start) < seconds) {
        times.first.push_back(plain());
        times.second.push_back(traced());
    }
    return times;
}

unsigned pin_to_cpus(unsigned count) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
        throw std::runtime_error("sched_getaffinity failed");
    }
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    unsigned taken = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && taken < count; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed)) continue;
        CPU_SET(cpu, &pinned);
        ++taken;
    }
    if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
        throw std::runtime_error("sched_setaffinity failed");
    }
    return taken;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t Tracer::open(const char* name, std::uint64_t request,
                          std::int64_t parent) {
    const double now =
        std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
            .count();
    spans_.push_back({name, request, parent, now, now});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::close(std::int64_t index) {
    spans_[static_cast<std::size_t>(index)].end_us =
        std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
            .count();
}

double Tracer::children_ms(std::int64_t parent, const char* name) const {
    double total = 0.0;
    for (std::size_t i = static_cast<std::size_t>(parent) + 1;
         i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.parent != parent) continue;
        if (name != nullptr && std::strcmp(name, s.name) != 0) continue;
        total += (s.end_us - s.start_us) / 1e3;
    }
    return total;
}

void Tracer::write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot open " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(out,
                     "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,"
                     "\"parent\":%lld,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                     i, s.name, static_cast<unsigned long long>(s.request),
                     static_cast<long long>(s.parent), s.start_us, s.end_us);
    }
    if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
