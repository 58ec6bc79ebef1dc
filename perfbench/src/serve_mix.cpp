// serve-mix: an in-process SolveServer on loopback with kWorkers workers,
// driven by kConnections closed-loop connections. Every sample sends each
// connection one block of requests — a fixed multiset (mostly
// sub-millisecond warm-pool wait-free solves, a few ~15 ms is-2-of*
// solves, one stats request) in an order drawn from the workload seed,
// so seeds change the interleaving but never the amount of work. Every
// sample runs on a freshly started and warmed server: that set-up is
// what setup_s times.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/nogood_store.h"
#include "engine/report_json.h"
#include "engine/scenario_registry.h"
#include "goldens.h"
#include "runtime/schedule.h"
#include "service/client.h"
#include "service/framing.h"
#include "service/server.h"
#include "traced_solve.h"
#include "workloads.h"

namespace perfbench {

using gact::engine::Engine;
using gact::engine::Scenario;
using gact::engine::ScenarioRegistry;
using gact::engine::SolveReport;
using gact::util::Json;

namespace {

constexpr unsigned kWorkers = 2;
constexpr unsigned kConnections = 2;
const std::vector<std::string> kFast = {
    "chr2-2p-wf", "wf-is-1",      "wf-is-2",      "lt-1-1-res1",
    "is-1-of1",   "approx-1-of1", "ksa-2-2-2-wf",
};
const std::vector<std::string> kMedium = {"is-2-of1", "is-2-of2"};
constexpr std::size_t kFastCopies = 5;
constexpr std::size_t kMediumCopies = 2;
/// The block entry that stands for a stats request.
const std::string kStats;

std::vector<std::string> distinct_scenarios() {
    std::vector<std::string> names = kFast;
    names.insert(names.end(), kMedium.begin(), kMedium.end());
    return names;
}

/// One connection's block for sample `stream`: the fixed multiset,
/// shuffled by SplitMix64(mix_seed(seed, stream)).
std::vector<std::string> request_block(std::uint64_t seed,
                                       std::uint64_t stream) {
    std::vector<std::string> block;
    for (std::size_t i = 0; i < kFastCopies; ++i) {
        block.insert(block.end(), kFast.begin(), kFast.end());
    }
    for (std::size_t i = 0; i < kMediumCopies; ++i) {
        block.insert(block.end(), kMedium.begin(), kMedium.end());
    }
    block.push_back(kStats);
    gact::runtime::SplitMix64 rng(gact::runtime::mix_seed(seed, stream));
    for (std::size_t i = block.size() - 1; i > 0; --i) {
        std::swap(block[i], block[rng.below(i + 1)]);
    }
    return block;
}

/// The digest a reply's report carries, or "" when it has none.
std::string reply_digest(const Json& reply) {
    const Json* report = reply.find("report");
    const Json* witness = report ? report->find("witness") : nullptr;
    const Json* digest = witness ? witness->find("digest") : nullptr;
    return digest != nullptr && digest->is_string() ? digest->as_string()
                                                    : "";
}

struct Tally {
    std::vector<double> latencies_ms;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> mismatches;

    void merge(Tally&& other) {
        latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                            other.latencies_ms.end());
        attempted += other.attempted;
        failed += other.failed;
        for (std::string& m : other.mismatches) {
            if (mismatches.size() < 8) mismatches.push_back(std::move(m));
        }
    }
};

/// Send one request and check its reply: ok, and for a solve the golden
/// digest (which the direct in-process solve must also produce).
void round_trip(gact::service::ServiceClient& client, const std::string& name,
                Tally& tally) {
    Json request = Json::object();
    request.set("type", name.empty() ? "stats" : "solve");
    if (!name.empty()) request.set("scenario", name);
    const auto start = Clock::now();
    std::string error;
    const std::optional<Json> reply = client.request(request, &error);
    tally.latencies_ms.push_back(ms_since(start));
    ++tally.attempted;
    const Json* ok = reply ? reply->find("ok") : nullptr;
    std::string problem;
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
        problem = "request failed: " + (reply ? reply->dump() : error);
    } else if (!name.empty() &&
               reply_digest(*reply) != goldens::kServeDigests.at(name)) {
        problem = "served digest " + reply_digest(*reply) +
                  " differs from the direct-solve golden";
    }
    if (!problem.empty()) {
        ++tally.failed;
        tally.mismatches.push_back("serve-mix " +
                                   (name.empty() ? "stats" : name) + ": " +
                                   problem);
    }
}

/// A running server plus its connected clients.
struct Session {
    std::unique_ptr<gact::service::SolveServer> server;
    std::vector<std::unique_ptr<gact::service::ServiceClient>> clients;

    ~Session() { close(); }
    void close() {
        clients.clear();
        server.reset();  // the destructor drains and joins
    }
    /// Start the server, connect every client and warm the resident
    /// pool with one solve of every scenario of the mix.
    void open(Tally& tally) {
        gact::service::ServiceConfig config;
        config.workers = kWorkers;
        server = std::make_unique<gact::service::SolveServer>(config);
        const std::string error = server->start();
        if (!error.empty()) throw std::runtime_error("server: " + error);
        for (unsigned c = 0; c < kConnections; ++c) {
            auto client = std::make_unique<gact::service::ServiceClient>();
            const std::string err = client->connect("127.0.0.1", server->port());
            if (!err.empty()) throw std::runtime_error("connect: " + err);
            clients.push_back(std::move(client));
        }
        Tally warm;
        for (const std::string& name : distinct_scenarios()) {
            round_trip(*clients[0], name, warm);
        }
        warm.latencies_ms.clear();  // cold solves: not the served mix
        tally.merge(std::move(warm));
    }
    /// Every connection runs its block of sample `index` concurrently;
    /// returns the sample wall in seconds.
    double sample(std::uint64_t seed, std::uint64_t index, Tally& tally) {
        std::vector<std::vector<std::string>> blocks;
        for (unsigned c = 0; c < kConnections; ++c) {
            blocks.push_back(request_block(seed, index * kConnections + c));
        }
        std::vector<Tally> tallies(kConnections);
        const auto start = Clock::now();
        std::vector<std::jthread> threads;
        for (unsigned c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                for (const std::string& name : blocks[c]) {
                    round_trip(*clients[c], name, tallies[c]);
                }
            });
        }
        threads.clear();  // joins
        const double seconds = seconds_since(start);
        for (Tally& t : tallies) tally.merge(std::move(t));
        return seconds;
    }
};

/// Served samples for `seconds`, each on a session set up afresh (the
/// set-up: server start, connects, one warm-up solve per scenario).
/// The warm-up round's replies are checked but its latencies dropped.
Samples served_samples(Session& session, const RunOptions& o, double seconds,
                       Tally& tally) {
    std::uint64_t index = 0;
    return take_samples(
        seconds, 3, [&] { session.open(tally); },
        [&] {
            Tally t;
            const double s = session.sample(o.seed, index++, t);
            if (index == 1) t.latencies_ms.clear();
            tally.merge(std::move(t));
            session.close();
            return s;
        });
}

std::size_t block_size() { return request_block(0, 0).size(); }

void finish(Result& r, Tally& tally) {
    r.attempted += tally.attempted;
    r.failed += tally.failed;
    for (std::string& m : tally.mismatches) r.check(false, m);
}

/// The json path a.b of a stats reply, as a number (0 when absent).
double stats_field(const Json& reply, const char* group, const char* key) {
    const Json* stats = reply.find("stats");
    const Json* g = stats ? stats->find(group) : nullptr;
    const Json* v = g ? g->find(key) : nullptr;
    return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

/// Reply-encoding cost of one served report: report_to_json, dump,
/// frame encode, incremental frame decode and parse — median over
/// repetitions, in microseconds.
double frame_codec_us(const SolveReport& report) {
    std::vector<double> us;
    for (int i = 0; i < 2001; ++i) {
        const auto start = Clock::now();
        Json body = Json::object();
        body.set("ok", true);
        body.set("report", gact::engine::report_to_json(report));
        const std::string frame = gact::service::encode_frame(body.dump());
        gact::service::FrameDecoder decoder;
        decoder.feed(frame);
        const std::optional<std::string> payload = decoder.next();
        const std::optional<Json> parsed =
            payload ? Json::parse(*payload) : std::nullopt;
        if (!parsed.has_value()) throw std::runtime_error("frame round trip");
        if (i > 0) us.push_back(ms_since(start) * 1e3);
    }
    return median(us);
}

}  // namespace

Result run_serve_mix(const RunOptions& o) {
    Result r;
    // One CPU per server worker, set before any thread exists so every
    // server and client thread inherits it. Handoffs between threads on
    // the same two CPUs avoid waking idle virtual CPUs: on a 4-vCPU
    // shared host, five runs spread the p50 over 0.82-1.20 ms unpinned
    // and 0.83-1.02 ms pinned.
    r.note("pinned.cpus", pin_to_cpus(kWorkers), "cpus");
    Tally tally;
    Session session;
    r.note("pinned.server_workers", kWorkers, "threads");
    r.note("pinned.connections", kConnections, "connections");
    r.note("serve.requests_per_block", block_size(), "count");

    // Direct solves: the in-process digest every served reply must match.
    const Engine engine;
    const ScenarioRegistry& registry = ScenarioRegistry::standard();
    for (const std::string& name : distinct_scenarios()) {
        const SolveReport rep = engine.solve(*registry.find(name));
        const std::string digest =
            rep.witness ? gact::engine::witness_digest_hex(*rep.witness) : "";
        r.check(digest == goldens::kServeDigests.at(name),
                "serve-mix direct solve of " + name + " digest " + digest);
    }

    if (!o.trace) {
        const Samples s = served_samples(session, o, o.seconds, tally);
        const double rps = static_cast<double>(kConnections * block_size()) /
                           median(s.times);
        const double p50 = median(tally.latencies_ms);
        r.add("latency_ms", p50, "ms", tally.latencies_ms.size());
        r.add("throughput_per_s", rps, "1/s", s.times.size());
        r.add("setup_s", median(s.setups), "s", s.setups.size());
        r.add("peak_rss_mb", peak_rss_mb(), "MB");
        r.note("requests_per_s", rps, "1/s", s.times.size());
        r.note("latency_p50_ms", p50, "ms", tally.latencies_ms.size());
        // p95, not p90: a tenth of the block is the ~15 ms class, so the
        // p90 sits on the boundary between two classes and flips.
        r.note("latency_p95_ms", percentile(tally.latencies_ms, 0.95), "ms",
               tally.latencies_ms.size());
        r.note("error_rate",
               static_cast<double>(tally.failed) /
                   static_cast<double>(tally.attempted),
               "ratio", tally.attempted);
        finish(r, tally);
        return r;
    }

    // Traced run. Served latencies first, then the same requests solved
    // in-process against a warm pool of their own: plain passes give the
    // direct latency, traced passes the layer split. The difference of
    // the two p50s is what the wire, queue and dispatcher add.
    served_samples(session, o, o.seconds / 2, tally);
    const std::vector<double> served = tally.latencies_ms;
    // The stats reply of a session that served one block per connection.
    session.open(tally);
    Tally last;
    session.sample(o.seed, 0, last);
    last.latencies_ms.clear();
    tally.merge(std::move(last));
    Json stats_request = Json::object();
    stats_request.set("type", "stats");
    const std::optional<Json> stats = session.clients[0]->request(stats_request);
    session.close();

    auto pool = std::make_shared<gact::core::SharedNogoodPool>();
    const auto build = [&](const std::string& name) {
        Scenario s = *registry.find(name);
        s.options.nogood_pool = pool;
        return s;
    };
    std::optional<SolveReport> sample_report;
    for (const std::string& name : distinct_scenarios()) {
        SolveReport rep = engine.solve(build(name));
        if (name == kFast.front()) sample_report = std::move(rep);
    }
    std::vector<std::string> block;
    for (const std::string& name : request_block(o.seed, 0)) {
        if (!name.empty()) block.push_back(name);
    }
    const auto check_direct = [&](const std::string& name,
                                  const SolveReport& rep) {
        ++r.attempted;
        const std::string digest =
            rep.witness ? gact::engine::witness_digest_hex(*rep.witness) : "";
        if (digest != goldens::kServeDigests.at(name)) {
            ++r.failed;
            r.check(false, "serve-mix traced direct solve of " + name +
                               " digest " + digest);
        }
    };

    std::vector<double> direct_ms;
    std::size_t plain_passes = 0;
    Tracer tracer;
    std::vector<std::int64_t> passes;
    SolveCounts counts;
    const auto pairs = take_pairs(
        o.seconds / 2, 3,
        [&] {
            const auto start = Clock::now();
            std::vector<double> pass_ms;
            for (const std::string& name : block) {
                const auto one = Clock::now();
                {
                    const Scenario s = build(name);
                    const SolveReport rep = engine.solve(s);
                    check_direct(name, rep);
                }
                pass_ms.push_back(ms_since(one));
            }
            if (plain_passes++ > 0) {  // the first is take_pairs' warm-up
                direct_ms.insert(direct_ms.end(), pass_ms.begin(),
                                 pass_ms.end());
            }
            return seconds_since(start);
        },
        [&] {
            const std::uint64_t req = passes.size();
            const auto start = Clock::now();
            const std::int64_t pass = tracer.open("pass", req, -1);
            counts = SolveCounts{};
            for (const std::string& name : block) {
                auto s = std::make_unique<Scenario>(tracer.record(
                    "engine.scenario_build", req, pass,
                    [&] { return build(name); }));
                auto rep = std::make_unique<SolveReport>(
                    traced_solve(*s, tracer, req, pass));
                tracer.record("bench.inspect", req, pass, [&] {
                    check_direct(name, *rep);
                    counts.add(*rep);
                });
                tracer.record("engine.report_release", req, pass, [&] {
                    rep.reset();
                    s.reset();
                });
            }
            tracer.close(pass);
            passes.push_back(pass);
            return seconds_since(start);
        });

    const double served_p50 = median(served);
    const double direct_p50 = median(direct_ms);
    r.add("service.latency_p95_ms", percentile(served, 0.95), "ms",
          served.size());
    r.add("service.direct_solve_ms_p50", direct_p50, "ms", direct_ms.size());
    r.add("service.overhead_ms_p50", served_p50 - direct_p50, "ms",
          served.size());
    r.add("service.frame_codec_us", frame_codec_us(*sample_report), "us",
          2000);
    r.check(stats.has_value(), "serve-mix stats request failed");
    if (stats.has_value()) {
        r.add("service.pool_seeded",
              stats_field(*stats, "counters", "pool_seeded"), "count");
        r.add("service.exec_tasks_stolen",
              stats_field(*stats, "exec", "tasks_stolen"), "count");
    }
    counts.emit(r);
    add_layer_metrics(r, tracer, passes);
    add_overhead_share(r, pairs);
    finish(r, tally);
    if (!o.trace_out.empty()) tracer.write(o.trace_out);
    return r;
}

}  // namespace perfbench
