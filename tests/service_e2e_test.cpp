// The solve service, end to end over real loopback sockets: an
// in-process SolveServer on an ephemeral port, driven by ServiceClient.
// The acceptance gates live here: a served solve returns the
// bit-identical witness digest a direct Engine::solve produces, the
// second identical request is answered warm out of the resident pool (0
// backtracks), backpressure and timeouts are explicit replies, a
// malformed payload doesn't kill the connection, and a SIGTERM-style
// drain snapshots the pool to disk before exit.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#include "core/nogood_store.h"
#include "engine/engine.h"
#include "engine/report_json.h"
#include "engine/scenario_registry.h"
#include "service/client.h"
#include "service/framing.h"
#include "service/server.h"
#include "util/json.h"

namespace gact::service {
namespace {

struct TempFile {
    std::string path;
    explicit TempFile(const std::string& tag) {
        path = std::string(::testing::TempDir()) + "gact-service-" + tag +
               "-" + std::to_string(::getpid()) + ".txt";
        std::remove(path.c_str());
    }
    ~TempFile() { std::remove(path.c_str()); }
};

util::Json solve_request(const std::string& scenario, int id = 0) {
    util::Json req = util::Json::object();
    req.set("type", "solve");
    req.set("scenario", scenario);
    if (id != 0) req.set("id", id);
    return req;
}

const util::Json* field(const util::Json& j, const std::string& key) {
    const util::Json* v = j.find(key);
    EXPECT_NE(v, nullptr) << "missing '" << key << "' in " << j.dump();
    return v;
}

bool reply_ok(const util::Json& reply) {
    const util::Json* ok = reply.find("ok");
    return ok != nullptr && ok->is_bool() && ok->as_bool();
}

TEST(ServiceE2E, ServedSolveMatchesDirectEngineBitForBit) {
    ServiceConfig config;  // ephemeral port, defaults otherwise
    SolveServer server(std::move(config));
    ASSERT_EQ(server.start(), "");

    // The reference: a direct in-process solve of the same scenario.
    auto scenario = engine::ScenarioRegistry::standard().find("is-2-wf");
    ASSERT_TRUE(scenario.has_value());
    const engine::SolveReport direct = engine::Engine().solve(*scenario);
    ASSERT_TRUE(direct.witness.has_value());

    ServiceClient client;
    ASSERT_EQ(client.connect("127.0.0.1", server.port()), "");
    const auto reply = client.request(solve_request("is-2-wf"));
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(reply_ok(*reply)) << reply->dump();
    const util::Json* report = field(*reply, "report");
    EXPECT_EQ(field(*report, "verdict")->as_string(), "solvable");
    const util::Json* witness = field(*report, "witness");
    EXPECT_EQ(field(*witness, "digest")->as_string(),
              engine::witness_digest_hex(*direct.witness));

    server.stop();
}

TEST(ServiceE2E, SecondRequestIsServedWarmFromTheResidentPool) {
    SolveServer server(ServiceConfig{});
    ASSERT_EQ(server.start(), "");
    ServiceClient client;
    ASSERT_EQ(client.connect("127.0.0.1", server.port()), "");

    // chr2-2p-wf searches on a cold pool (nonzero backtracks) — the
    // scenario that makes "warm means 0 backtracks" a real assertion.
    const auto cold = client.request(solve_request("chr2-2p-wf"));
    ASSERT_TRUE(cold.has_value() && reply_ok(*cold)) << cold->dump();
    const util::Json* cold_counters =
        field(*field(*cold, "report"), "counters");
    EXPECT_GT(field(*cold_counters, "backtracks")->as_int(), 0);
    EXPECT_GT(field(*cold_counters, "pool_published")->as_int(), 0);

    // Same request again — a fresh connection, like a second CLI run,
    // except the server's pool is resident and already warm.
    ServiceClient second;
    ASSERT_EQ(second.connect("127.0.0.1", server.port()), "");
    const auto warm = second.request(solve_request("chr2-2p-wf"));
    ASSERT_TRUE(warm.has_value() && reply_ok(*warm)) << warm->dump();
    const util::Json* warm_report = field(*warm, "report");
    const util::Json* warm_counters = field(*warm_report, "counters");
    EXPECT_EQ(field(*warm_counters, "backtracks")->as_int(), 0)
        << warm->dump();
    EXPECT_GT(field(*warm_counters, "pool_seeded")->as_int(), 0);
    // And the witness is the identical one.
    EXPECT_EQ(field(*field(*warm_report, "witness"), "digest")->as_string(),
              field(*field(*field(*cold, "report"), "witness"), "digest")
                  ->as_string());

    server.stop();
}

TEST(ServiceE2E, StatsAndListReflectTheServer) {
    SolveServer server(ServiceConfig{});
    ASSERT_EQ(server.start(), "");
    ServiceClient client;
    ASSERT_EQ(client.connect("127.0.0.1", server.port()), "");

    ASSERT_TRUE(reply_ok(
        *client.request(solve_request("ksa-2p-k2-wf"))));

    util::Json stats_req = util::Json::object();
    stats_req.set("type", "stats");
    const auto stats = client.request(stats_req);
    ASSERT_TRUE(stats.has_value() && reply_ok(*stats)) << stats->dump();
    const util::Json* s = field(*stats, "stats");
    EXPECT_EQ(field(*s, "solves_completed")->as_int(), 1);
    EXPECT_EQ(field(*field(*s, "verdicts"), "solvable")->as_int(), 1);
    EXPECT_GE(field(*s, "uptime_ms")->as_double(), 0.0);
    EXPECT_EQ(field(*s, "queue_depth")->as_int(), 0);
    ASSERT_NE(field(*s, "counters"), nullptr);

    // The scheduler's counters ride along (exec/exec_stats.h): the one
    // solve ran as a task on the server's resident pool, and its wall
    // time is in the latency histogram. The completion counter is
    // bumped AFTER the task (and its reply write) returns, so poll: the
    // reply having arrived does not yet order the counter bump.
    util::Json exec_snapshot;
    for (int attempt = 0; attempt < 100; ++attempt) {
        const auto again = client.request(stats_req);
        ASSERT_TRUE(again.has_value() && reply_ok(*again));
        exec_snapshot = *field(*field(*again, "stats"), "exec");
        if (field(exec_snapshot, "tasks_executed")->as_int() >= 1) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(field(exec_snapshot, "workers")->as_int(),
              2);  // ServiceConfig default
    EXPECT_GE(field(exec_snapshot, "tasks_executed")->as_int(), 1);
    ASSERT_NE(field(exec_snapshot, "latency_log2_us"), nullptr);
    std::int64_t histogram_mass = 0;
    for (const util::Json& bucket :
         field(exec_snapshot, "latency_log2_us")->as_array()) {
        histogram_mass += bucket.as_int();
    }
    EXPECT_EQ(histogram_mass,
              field(exec_snapshot, "tasks_executed")->as_int());

    util::Json list_req = util::Json::object();
    list_req.set("type", "list");
    const auto list = client.request(list_req);
    ASSERT_TRUE(list.has_value() && reply_ok(*list)) << list->dump();
    const auto& scenarios = field(*list, "scenarios")->as_array();
    const auto names = engine::ScenarioRegistry::standard().names();
    ASSERT_EQ(scenarios.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(field(scenarios[i], "name")->as_string(), names[i])
            << "list reply not in sorted registry order at " << i;
    }
    // The list reply also carries every scenario-family schema, so a
    // client can construct parameterized names without guessing.
    const auto& families = field(*list, "families")->as_array();
    const auto& registry_families =
        engine::ScenarioRegistry::standard().families();
    ASSERT_EQ(families.size(), registry_families.size());
    ASSERT_GE(families.size(), 7u);
    for (std::size_t i = 0; i < families.size(); ++i) {
        EXPECT_EQ(field(families[i], "family")->as_string(),
                  registry_families[i].key());
        EXPECT_NE(field(families[i], "grammar"), nullptr);
        EXPECT_NE(field(families[i], "params"), nullptr);
    }

    server.stop();
}

TEST(ServiceE2E, ParameterizedFamilyNamesAreServed) {
    // A canonical family name that is NOT a registered spec: the server
    // resolves it through the family codec, and the served witness is
    // bit-identical to the legacy alias's pinned golden (wf-is-2 is the
    // canonical spelling of is-2-wf).
    SolveServer server(ServiceConfig{});
    ASSERT_EQ(server.start(), "");
    ServiceClient client;
    ASSERT_EQ(client.connect("127.0.0.1", server.port()), "");

    const auto reply = client.request(solve_request("wf-is-2"));
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(reply_ok(*reply)) << reply->dump();
    const util::Json* report = field(*reply, "report");
    EXPECT_EQ(field(*report, "verdict")->as_string(), "solvable");
    EXPECT_EQ(field(*field(*report, "witness"), "digest")->as_string(),
              "36e503452cdda31f");

    // An out-of-range family name is an unknown-scenario error whose
    // message carries the family's grammar and ranges.
    const auto bad = client.request(solve_request("wf-is-9"));
    ASSERT_TRUE(bad.has_value());
    EXPECT_FALSE(reply_ok(*bad));
    EXPECT_EQ(field(*bad, "code")->as_string(), "unknown-scenario");
    const std::string message = field(*bad, "error")->as_string();
    EXPECT_NE(message.find("wf-is-<n>"), std::string::npos) << message;

    server.stop();
}

TEST(ServiceE2E, BadRequestsGetErrorsAndTheConnectionLivesOn) {
    SolveServer server(ServiceConfig{});
    ASSERT_EQ(server.start(), "");
    ServiceClient client;
    ASSERT_EQ(client.connect("127.0.0.1", server.port()), "");

    // Unknown scenario: explicit code plus the registered names.
    const auto unknown = client.request(solve_request("nope"));
    ASSERT_TRUE(unknown.has_value());
    EXPECT_FALSE(reply_ok(*unknown));
    EXPECT_EQ(field(*unknown, "code")->as_string(), "unknown-scenario");
    EXPECT_NE(field(*unknown, "error")->as_string().find("chr2-2p-wf"),
              std::string::npos);

    // Unknown request type.
    util::Json weird = util::Json::object();
    weird.set("type", "frobnicate");
    const auto bad_type = client.request(weird);
    ASSERT_TRUE(bad_type.has_value());
    EXPECT_EQ(field(*bad_type, "code")->as_string(), "bad-request");

    // A payload that parses but isn't an object: bad-request, and the
    // same connection still serves a real solve afterwards.
    const auto non_object = client.request(util::Json("not an object"));
    ASSERT_TRUE(non_object.has_value());
    EXPECT_FALSE(reply_ok(*non_object));
    EXPECT_EQ(field(*non_object, "code")->as_string(), "bad-request");
    const auto after = client.request(solve_request("ksa-2p-k2-wf"));
    ASSERT_TRUE(after.has_value());
    EXPECT_TRUE(reply_ok(*after)) << after->dump();

    server.stop();
}

TEST(ServiceE2E, MalformedPayloadKeepsTheConnectionUsable) {
    // ServiceClient can only send valid JSON, so go under it: a raw
    // TCP connection writing a well-formed frame around unparseable
    // bytes. The server must answer bad-request and keep reading.
    SolveServer server(ServiceConfig{});
    ASSERT_EQ(server.start(), "");

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);

    ASSERT_EQ(write_frame(fd, "{this is not json"), "");
    std::string payload;
    std::string diagnostic;
    ASSERT_EQ(read_frame(fd, payload, diagnostic), ReadStatus::kOk)
        << diagnostic;
    const auto error_reply = util::Json::parse(payload);
    ASSERT_TRUE(error_reply.has_value());
    EXPECT_FALSE(reply_ok(*error_reply));
    EXPECT_EQ(field(*error_reply, "code")->as_string(), "bad-request");

    // The connection survived: a valid request on the same socket is
    // served normally.
    ASSERT_EQ(write_frame(fd, solve_request("ksa-2p-k2-wf").dump()), "");
    ASSERT_EQ(read_frame(fd, payload, diagnostic), ReadStatus::kOk)
        << diagnostic;
    const auto solved = util::Json::parse(payload);
    ASSERT_TRUE(solved.has_value());
    EXPECT_TRUE(reply_ok(*solved)) << payload;

    // An unframeable byte stream (bogus length prefix), by contrast,
    // earns one bad-frame reply and a close: no later frame boundary
    // can be trusted.
    ASSERT_EQ(static_cast<std::size_t>(
                  ::write(fd, "\xff\xff\xff\xffgarbage", 11)),
              11u);
    ASSERT_EQ(read_frame(fd, payload, diagnostic), ReadStatus::kOk)
        << diagnostic;
    const auto frame_error = util::Json::parse(payload);
    ASSERT_TRUE(frame_error.has_value());
    EXPECT_EQ(field(*frame_error, "code")->as_string(), "bad-frame");
    EXPECT_EQ(read_frame(fd, payload, diagnostic), ReadStatus::kClosed);

    ::close(fd);
    server.stop();
}

TEST(ServiceE2E, QueueFullIsExplicitBackpressure) {
    // One worker, queue of one, and a hook that holds the worker: the
    // first request is popped and parked, the second fills the queue,
    // the third must be refused immediately with queue-full.
    std::mutex m;
    std::condition_variable cv;
    bool worker_parked = false;
    bool release = false;

    ServiceConfig config;
    config.workers = 1;
    config.queue_depth = 1;
    config.test_worker_hook = [&] {
        std::unique_lock<std::mutex> lock(m);
        worker_parked = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    };
    SolveServer server(std::move(config));
    ASSERT_EQ(server.start(), "");

    ServiceClient client;
    ASSERT_EQ(client.connect("127.0.0.1", server.port()), "");
    ASSERT_EQ(client.send(solve_request("ksa-2p-k2-wf", 1)), "");
    {
        // Only once the worker holds job 1 is the queue guaranteed
        // empty-but-bounded; without this wait job 2 could be the one
        // refused.
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return worker_parked; });
    }
    ASSERT_EQ(client.send(solve_request("ksa-2p-k2-wf", 2)), "");
    // Job 2 is admitted by the reader thread strictly before job 3 is
    // read off the same connection, so job 3 meets a full queue.
    ASSERT_EQ(client.send(solve_request("ksa-2p-k2-wf", 3)), "");

    // The refusal arrives first (written inline by the reader).
    const auto refusal = client.receive();
    ASSERT_TRUE(refusal.has_value());
    EXPECT_FALSE(reply_ok(*refusal));
    EXPECT_EQ(field(*refusal, "code")->as_string(), "queue-full");
    EXPECT_EQ(field(*refusal, "id")->as_int(), 3);

    {
        const std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    // Jobs 1 and 2 complete normally, in order.
    const auto first = client.receive();
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(reply_ok(*first)) << first->dump();
    EXPECT_EQ(field(*first, "id")->as_int(), 1);
    const auto second = client.receive();
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(reply_ok(*second)) << second->dump();
    EXPECT_EQ(field(*second, "id")->as_int(), 2);

    server.stop();
}

TEST(ServiceE2E, RepliesToAHungUpClientDoNotKillTheServer) {
    // Two solves are admitted, the worker is parked, and the client
    // hangs up before either reply is written. The first late reply
    // draws the peer's RST; the second then hits EPIPE — which must
    // come back as a write_frame diagnostic, not a process-killing
    // SIGPIPE. Meanwhile the reaper retires the dead reader but must
    // NOT close the fd out from under the queued jobs (the Connection
    // owns it), so neither reply can land in a stranger's stream.
    std::mutex m;
    std::condition_variable cv;
    bool worker_parked = false;
    bool release = false;

    ServiceConfig config;
    config.workers = 1;
    config.queue_depth = 4;
    config.test_worker_hook = [&] {
        std::unique_lock<std::mutex> lock(m);
        worker_parked = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    };
    SolveServer server(std::move(config));
    ASSERT_EQ(server.start(), "");

    {
        ServiceClient client;
        ASSERT_EQ(client.connect("127.0.0.1", server.port()), "");
        ASSERT_EQ(client.send(solve_request("ksa-2p-k2-wf", 1)), "");
        {
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock, [&] { return worker_parked; });
        }
        ASSERT_EQ(client.send(solve_request("ksa-2p-k2-wf", 2)), "");
        // Hang up with both replies still pending (job 1 held by the
        // parked worker, job 2 queued), then give the acceptor's
        // reaper time to notice the dead reader.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    {
        const std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();

    // The server survived both broken-pipe replies and still serves.
    ServiceClient after;
    ASSERT_EQ(after.connect("127.0.0.1", server.port()), "");
    for (int i = 0; i < 100; ++i) {
        // Wait out the parked-worker backlog; the hook is a one-shot
        // park per pop, released above, so this converges fast.
        const auto reply = after.request(solve_request("ksa-2p-k2-wf"));
        ASSERT_TRUE(reply.has_value());
        if (reply_ok(*reply)) break;
    }
    server.stop();
}

TEST(ServiceE2E, ConnectionsBeyondTheCapAreRefusedExplicitly) {
    ServiceConfig config;
    config.max_connections = 1;
    SolveServer server(std::move(config));
    ASSERT_EQ(server.start(), "");

    ServiceClient first;
    ASSERT_EQ(first.connect("127.0.0.1", server.port()), "");
    ASSERT_TRUE(reply_ok(*first.request(solve_request("ksa-2p-k2-wf"))));

    // The second connection meets the cap: one explicit refusal frame,
    // then a close — never a silently parked or dropped connection.
    ServiceClient second;
    ASSERT_EQ(second.connect("127.0.0.1", server.port()), "");
    std::string error;
    const auto refusal = second.receive(&error);
    ASSERT_TRUE(refusal.has_value()) << error;
    EXPECT_FALSE(reply_ok(*refusal));
    EXPECT_EQ(field(*refusal, "code")->as_string(),
              "too-many-connections");
    EXPECT_FALSE(second.receive().has_value());  // closed after refusal

    // The first connection is unaffected, and once it hangs up its
    // slot frees for a new client (the reaper runs on the acceptor's
    // poll tick, so allow it a few).
    ASSERT_TRUE(reply_ok(*first.request(solve_request("ksa-2p-k2-wf"))));
    first.close();
    bool admitted = false;
    for (int i = 0; i < 40 && !admitted; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ServiceClient retry;
        ASSERT_EQ(retry.connect("127.0.0.1", server.port()), "");
        const auto reply = retry.request(solve_request("ksa-2p-k2-wf"));
        admitted = reply.has_value() && reply_ok(*reply);
    }
    EXPECT_TRUE(admitted);
    server.stop();
}

TEST(ServiceE2E, ExpiredQueueWaitDeadlineIsATimeoutReply) {
    std::mutex m;
    std::condition_variable cv;
    bool worker_parked = false;
    bool release = false;

    ServiceConfig config;
    config.workers = 1;
    config.queue_depth = 4;
    config.test_worker_hook = [&] {
        std::unique_lock<std::mutex> lock(m);
        worker_parked = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    };
    SolveServer server(std::move(config));
    ASSERT_EQ(server.start(), "");

    ServiceClient client;
    ASSERT_EQ(client.connect("127.0.0.1", server.port()), "");
    ASSERT_EQ(client.send(solve_request("ksa-2p-k2-wf", 1)), "");
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return worker_parked; });
    }
    // Job 2 carries a 1 ms queue-wait budget and then waits behind the
    // parked worker for far longer.
    util::Json deadline_req = solve_request("ksa-2p-k2-wf", 2);
    deadline_req.set("timeout_ms", 1);
    ASSERT_EQ(client.send(deadline_req), "");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
        const std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();

    const auto first = client.receive();
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(reply_ok(*first));
    const auto timed_out = client.receive();
    ASSERT_TRUE(timed_out.has_value());
    EXPECT_FALSE(reply_ok(*timed_out));
    EXPECT_EQ(field(*timed_out, "code")->as_string(), "timeout");
    EXPECT_EQ(field(*timed_out, "verdict")->as_string(),
              "budget-exhausted");
    EXPECT_EQ(field(*timed_out, "id")->as_int(), 2);

    server.stop();
}

TEST(ServiceE2E, LargestTimeoutSolvesInsteadOfExpiringAtOnce) {
    // now + INT64_MAX ms does not fit the steady clock's nanosecond
    // count; the deadline saturates instead of wrapping into the past.
    // The same saturation guards the engine time budget the server
    // derives from it.
    SolveServer server(ServiceConfig{});
    ASSERT_EQ(server.start(), "");
    ServiceClient client;
    ASSERT_EQ(client.connect("127.0.0.1", server.port()), "");
    util::Json req = solve_request("ksa-2p-k2-wf", 7);
    req.set("timeout_ms", std::numeric_limits<std::int64_t>::max());
    ASSERT_EQ(client.send(req), "");
    const auto reply = client.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(reply_ok(*reply)) << reply->dump();
    EXPECT_EQ(field(*reply, "id")->as_int(), 7);
    const util::Json* report = field(*reply, "report");
    ASSERT_NE(report, nullptr);
    EXPECT_EQ(field(*report, "verdict")->as_string(),
              engine::to_string(engine::Verdict::kSolvable));
    server.stop();
}

TEST(ServiceE2E, SigtermDrainSnapshotsThePoolToDisk) {
    TempFile pool_file("drain");
    ServiceConfig config;
    config.pool_file = pool_file.path;
    SolveServer server(std::move(config));
    ASSERT_EQ(server.start(), "");
    EXPECT_EQ(server.startup_warning(), "");  // missing file = cold start

    ServiceClient client;
    ASSERT_EQ(client.connect("127.0.0.1", server.port()), "");
    const auto solved = client.request(solve_request("chr2-2p-wf"));
    ASSERT_TRUE(solved.has_value() && reply_ok(*solved));

    // The real signal path: handlers installed, SIGTERM raised, the
    // main-loop wait returns, stop() drains and snapshots.
    install_stop_signal_handlers(server);
    ASSERT_EQ(std::raise(SIGTERM), 0);
    server.wait_until_stop_requested();
    server.stop();
    uninstall_stop_signal_handlers();

    // The snapshot is on disk and loads whole into a fresh pool — the
    // learning survives the process.
    core::SharedNogoodPool reloaded;
    ASSERT_EQ(reloaded.load(pool_file.path), "");
    EXPECT_GT(reloaded.published(), 0u);
}

TEST(ServiceE2E, CorruptPoolFileWarnsAtStartupAndStillServes) {
    TempFile pool_file("corrupt");
    {
        std::ofstream out(pool_file.path);
        out << "gact-nogood-pool v999\ngarbage\n";
    }
    ServiceConfig config;
    config.pool_file = pool_file.path;
    SolveServer server(std::move(config));
    ASSERT_EQ(server.start(), "");
    EXPECT_NE(server.startup_warning(), "");

    ServiceClient client;
    ASSERT_EQ(client.connect("127.0.0.1", server.port()), "");
    const auto solved = client.request(solve_request("chr2-2p-wf"));
    ASSERT_TRUE(solved.has_value());
    EXPECT_TRUE(reply_ok(*solved)) << solved->dump();
    server.stop();
}

TEST(ServiceE2E, RequestsAfterStopAreRefusedAsShuttingDown) {
    SolveServer server(ServiceConfig{});
    ASSERT_EQ(server.start(), "");
    ServiceClient client;
    ASSERT_EQ(client.connect("127.0.0.1", server.port()), "");
    ASSERT_TRUE(reply_ok(*client.request(solve_request("ksa-2p-k2-wf"))));

    server.request_stop();
    // The reader answers shutting-down (or the drain already closed the
    // connection — both are orderly).
    const auto late = client.request(solve_request("ksa-2p-k2-wf"));
    if (late.has_value()) {
        EXPECT_FALSE(reply_ok(*late));
        EXPECT_EQ(field(*late, "code")->as_string(), "shutting-down");
    }
    server.stop();
}

TEST(ServiceE2E, PeriodicSnapshotLandsWithoutStoppingTheServer) {
    TempFile pool_file("periodic");
    ServiceConfig config;
    config.pool_file = pool_file.path;
    config.snapshot_every_seconds = 1;
    SolveServer server(std::move(config));
    ASSERT_EQ(server.start(), "");

    ServiceClient client;
    ASSERT_EQ(client.connect("127.0.0.1", server.port()), "");
    ASSERT_TRUE(reply_ok(*client.request(solve_request("chr2-2p-wf"))));

    // Within a few periods the snapshot thread must have written a
    // loadable file — while the server keeps serving.
    bool snapshotted = false;
    for (int i = 0; i < 40 && !snapshotted; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        core::SharedNogoodPool probe;
        snapshotted = probe.load(pool_file.path).empty() &&
                      probe.published() > 0;
    }
    EXPECT_TRUE(snapshotted);
    ASSERT_TRUE(reply_ok(*client.request(solve_request("chr2-2p-wf"))));
    server.stop();
}

}  // namespace
}  // namespace gact::service
