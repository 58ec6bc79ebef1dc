#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "engine/report_json.h"
#include "exec/cancel.h"
#include "engine/scenario_registry.h"
#include "util/require.h"

namespace gact::service {

namespace {

double millis_between(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

Connection::~Connection() {
    if (fd >= 0) ::close(fd);
}

SolveServer::SolveServer(ServiceConfig config)
    : config_(std::move(config)),
      pool_(std::make_shared<core::SharedNogoodPool>()),
      queue_(config_.queue_depth == 0 ? 1 : config_.queue_depth) {
    if (config_.workers == 0) config_.workers = 1;
    if (config_.max_connections == 0) config_.max_connections = 1;
}

SolveServer::~SolveServer() { stop(); }

std::string SolveServer::start() {
    require(!started_, "SolveServer::start: already started");

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        return std::string("socket() failed: ") + std::strerror(errno);
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bind_address.c_str(),
                    &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        return "invalid bind address '" + config_.bind_address +
               "' (IPv4 dotted quad expected)";
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        const std::string err =
            std::string("bind() failed: ") + std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return err;
    }
    if (::listen(listen_fd_, 64) != 0) {
        const std::string err =
            std::string("listen() failed: ") + std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return err;
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0) {
        bound_port_ = ntohs(bound.sin_port);
    }

    // Warm the resident pool from disk. A missing file is the ordinary
    // first-boot cold start; a file that exists but cannot be read or
    // parsed is surfaced as a startup warning: the warm cache the
    // operator configured is not happening, but the server must come up
    // regardless (the pool only accelerates, it never decides).
    if (!config_.pool_file.empty()) {
        const std::string err = pool_->load_if_present(config_.pool_file);
        if (!err.empty()) {
            startup_warning_ =
                "pool file rejected (" + err + ") — starting cold";
        }
    }

    started_at_ = std::chrono::steady_clock::now();
    started_ = true;
    scheduler_ = std::make_unique<exec::Scheduler>(config_.workers);
    permits_ = config_.workers;
    acceptor_ = std::thread([this] { acceptor_loop(); });
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
    if (!config_.pool_file.empty() &&
        config_.snapshot_every_seconds > 0) {
        snapshotter_ = std::thread([this] { snapshot_loop(); });
    }
    return "";
}

void SolveServer::wait_until_stop_requested() const {
    while (!stop_requested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

void SolveServer::stop() {
    if (!started_ || stopped_) return;
    stopped_ = true;
    request_stop();

    // 1. Stop accepting: the acceptor polls stop_requested_ and exits.
    if (acceptor_.joinable()) acceptor_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }

    // 2. Drain: no new admissions; the dispatcher forwards every
    //    already-admitted job to the scheduler and exits when the
    //    closed queue runs dry, and all permits being home again means
    //    every forwarded solve has finished and replied (readers still
    //    running reply shutting-down to any late request — their
    //    connections stay open so in-flight replies can be written).
    queue_.close();
    if (dispatcher_.joinable()) dispatcher_.join();
    {
        std::unique_lock<std::mutex> lock(permit_mutex_);
        permit_cv_.wait(lock,
                        [this] { return permits_ >= config_.workers; });
    }

    // 3. Final snapshot, after the periodic snapshotter has exited so
    //    the last save is the complete drained state.
    if (snapshotter_.joinable()) snapshotter_.join();
    if (!config_.pool_file.empty()) snapshot_pool();

    // 4. Tear down connections: shutdown() wakes readers blocked in
    //    read(), then join and drop the references — each Connection
    //    closes its own fd when the last shared_ptr dies (every solve
    //    task has finished, so clearing conns_ is the last reference).
    {
        const std::lock_guard<std::mutex> lock(conns_mutex_);
        for (ConnEntry& e : conns_) {
            ::shutdown(e.conn->fd, SHUT_RDWR);
        }
        for (ConnEntry& e : conns_) {
            if (e.reader.joinable()) e.reader.join();
        }
        conns_.clear();
    }
}

void SolveServer::acceptor_loop() {
    while (!stop_requested()) {
        pollfd pfd{};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0) {
            if (errno == EINTR) continue;
            break;
        }
        // Reap connections whose reader finished (client hung up), so a
        // long-running server does not accumulate dead threads. Only
        // the reader thread is joined and the entry's reference
        // dropped; the fd is NOT closed here — a queued or in-flight
        // SolveJob may still hold the Connection, and closing under it
        // would let the kernel hand the same fd number to a new client,
        // sending the late reply into an unrelated stream. The
        // Connection's destructor closes the fd once the last holder
        // (reaper or worker, whichever is later) lets go.
        std::size_t live = 0;
        {
            const std::lock_guard<std::mutex> lock(conns_mutex_);
            for (std::size_t i = 0; i < conns_.size();) {
                if (conns_[i].conn->reader_done.load()) {
                    if (conns_[i].reader.joinable()) {
                        conns_[i].reader.join();
                    }
                    conns_.erase(conns_.begin() +
                                 static_cast<std::ptrdiff_t>(i));
                } else {
                    ++i;
                }
            }
            live = conns_.size();
        }
        if (ready == 0) continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) continue;
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (live >= config_.max_connections) {
            // Each connection is a live reader thread; beyond the cap a
            // flood would grow threads and memory without bound. The
            // refusal is explicit — one best-effort error frame, then
            // close — so a polite client knows to back off.
            util::Json body = util::Json::object();
            body.set("ok", false);
            body.set("code", "too-many-connections");
            body.set("error",
                     "connection limit reached (" +
                         std::to_string(config_.max_connections) +
                         " live connections); retry later");
            (void)write_frame(fd, body.dump());
            ::close(fd);
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            ++connections_refused_;
            continue;
        }
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        {
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            ++connections_accepted_;
        }
        const std::lock_guard<std::mutex> lock(conns_mutex_);
        conns_.push_back(ConnEntry{
            conn, std::thread([this, conn] { reader_loop(conn); })});
    }
}

void SolveServer::reader_loop(std::shared_ptr<Connection> conn) {
    FrameDecoder decoder(config_.max_payload_bytes);
    char buf[8192];
    bool closing = false;
    while (!closing) {
        const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;  // EOF or error: the reader is done
        decoder.feed(buf, static_cast<std::size_t>(n));
        std::optional<std::string> payload;
        while ((payload = decoder.next()).has_value()) {
            handle_payload(conn, *payload);
        }
        if (!decoder.error().empty()) {
            // A bogus length prefix desynchronizes the stream: no later
            // frame boundary can be trusted, so this is the one
            // malformed-input case that closes the connection — after
            // an explicit reply saying why (a malformed *payload* in a
            // well-formed frame keeps the connection; see
            // handle_payload).
            reply_error(conn, util::Json(), "bad-frame", decoder.error());
            closing = true;
        }
    }
    conn->reader_done.store(true);
}

void SolveServer::handle_payload(const std::shared_ptr<Connection>& conn,
                                 const std::string& payload) {
    {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++requests_received_;
    }
    std::string parse_error;
    const std::optional<util::Json> request =
        util::Json::parse(payload, &parse_error);
    if (!request.has_value()) {
        reply_error(conn, util::Json(), "bad-request",
                    "payload is not valid JSON: " + parse_error);
        return;
    }
    util::Json id;  // echoed verbatim in the reply when present
    if (const util::Json* rid = request->find("id")) id = *rid;

    const util::Json* type = request->find("type");
    if (type == nullptr || !type->is_string()) {
        reply_error(conn, id, "bad-request",
                    "request needs a string 'type' field "
                    "(solve | stats | list)");
        return;
    }
    const std::string& t = type->as_string();

    if (t == "stats") {
        util::Json body = util::Json::object();
        body.set("ok", true);
        if (!id.is_null()) body.set("id", id);
        body.set("stats", stats_json());
        reply(conn, body);
        return;
    }
    if (t == "list") {
        util::Json body = util::Json::object();
        body.set("ok", true);
        if (!id.is_null()) body.set("id", id);
        body.set("scenarios", list_json());
        body.set("families", families_json());
        reply(conn, body);
        return;
    }
    if (t != "solve") {
        reply_error(conn, id, "bad-request",
                    "unknown request type '" + t + "'");
        return;
    }

    if (stop_requested()) {
        reply_error(conn, id, "shutting-down",
                    "server is draining; no new solves admitted");
        return;
    }

    std::string error;
    std::optional<engine::Scenario> scenario =
        engine::scenario_from_request(*request, &error);
    if (!scenario.has_value()) {
        const bool unknown = error.rfind("unknown scenario", 0) == 0;
        reply_error(conn, id,
                    unknown ? "unknown-scenario" : "bad-request", error);
        return;
    }

    // The resident pool is the whole point of the server: every solve
    // seeds from and publishes to it.
    scenario->options.nogood_pool = pool_;

    SolveJob job;
    job.scenario = std::move(*scenario);
    job.id = std::move(id);
    job.conn = conn;
    std::size_t timeout_ms = config_.default_timeout_ms;
    if (const util::Json* to = request->find("timeout_ms")) {
        if (!to->is_int() || to->as_int() < 0) {
            reply_error(conn, job.id, "bad-request",
                        "'timeout_ms' must be a non-negative integer");
            return;
        }
        timeout_ms = static_cast<std::size_t>(to->as_int());
    }
    if (timeout_ms > 0) {
        job.has_deadline = true;
        job.deadline = exec::deadline_after_ms(
            std::chrono::steady_clock::now(), timeout_ms);
    }

    if (!queue_.try_push(std::move(job))) {
        // job.conn was moved; reply through the original handle. The
        // explicit backpressure reply is the contract: a client must
        // learn its request was dropped NOW, not time out wondering.
        reply_error(conn, request->find("id") != nullptr
                              ? *request->find("id")
                              : util::Json(),
                    stop_requested() ? "shutting-down" : "queue-full",
                    "admission queue is full (" +
                        std::to_string(queue_.capacity()) +
                        " pending solves); retry later");
        return;
    }
}

void SolveServer::dispatcher_loop() {
    // Acquire the permit BEFORE popping: when all `workers` permits are
    // out, no job is popped-and-parked in the dispatcher's hands — it
    // stays in the bounded queue where admission control can see it,
    // exactly as when N worker threads each held at most one popped
    // job. Scheduler::submit is detached, so the task's own epilogue
    // returns the permit.
    while (true) {
        {
            std::unique_lock<std::mutex> lock(permit_mutex_);
            permit_cv_.wait(lock, [this] { return permits_ > 0; });
            --permits_;
        }
        SolveJob job;
        if (!queue_.pop(job)) {
            // Closed and drained: hand the unused permit back (stop()
            // waits for the full complement) and exit.
            const std::lock_guard<std::mutex> lock(permit_mutex_);
            ++permits_;
            permit_cv_.notify_all();
            return;
        }
        // shared_ptr wrapper: std::function requires a copyable
        // callable and SolveJob holds move-only state.
        auto boxed = std::make_shared<SolveJob>(std::move(job));
        scheduler_->submit([this, boxed] {
            process_job(std::move(*boxed));
            const std::lock_guard<std::mutex> lock(permit_mutex_);
            ++permits_;
            permit_cv_.notify_all();
        });
    }
}

void SolveServer::process_job(SolveJob job) {
    if (config_.test_worker_hook) config_.test_worker_hook();
    {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++in_flight_;
    }
    const auto now = std::chrono::steady_clock::now();
    if (job.has_deadline && now > job.deadline) {
        // The queue-wait budget ran out before a permit freed up: the
        // kBudgetExhausted shape of an error reply — solve not
        // attempted, answer explicit.
        util::Json body = util::Json::object();
        body.set("ok", false);
        if (!job.id.is_null()) body.set("id", job.id);
        body.set("code", "timeout");
        body.set("verdict",
                 engine::to_string(engine::Verdict::kBudgetExhausted));
        body.set("error",
                 "queue-wait deadline exceeded before a worker was "
                 "free; solve not attempted");
        reply(job.conn, body);
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++errors_timeout_;
        --in_flight_;
        return;
    }
    if (job.has_deadline) {
        // Deadline still ahead: hand the remaining time to the engine
        // as a wall-clock budget (EngineOptions::time_budget_ms →
        // CancelToken deadline), so a solve that outlives its client's
        // patience is cut at the next task boundary and reports
        // budget-exhausted instead of being served late. A tighter
        // budget already on the scenario wins.
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                job.deadline - now)
                .count();
        const auto budget =
            static_cast<std::size_t>(std::max<long long>(1, remaining));
        std::size_t& scenario_budget = job.scenario.options.time_budget_ms;
        if (scenario_budget == 0 || budget < scenario_budget) {
            scenario_budget = budget;
        }
    }

    util::Json body = util::Json::object();
    try {
        const engine::SolveReport report = engine_.solve(job.scenario);
        body.set("ok", true);
        if (!job.id.is_null()) body.set("id", job.id);
        body.set("report", engine::report_to_json(report));
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++solves_completed_;
        ++verdict_counts_[static_cast<int>(report.verdict)];
        cumulative_counters_.add(report.counters);
    } catch (const std::exception& e) {
        body = util::Json::object();
        body.set("ok", false);
        if (!job.id.is_null()) body.set("id", job.id);
        body.set("code", "solve-failed");
        body.set("error", std::string("solve threw: ") + e.what());
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++errors_bad_request_;
    }
    reply(job.conn, body);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    --in_flight_;
}

void SolveServer::snapshot_loop() {
    while (true) {
        // Sleep the period in 100 ms slices so a stop request ends the
        // thread promptly instead of after a full period.
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::seconds(config_.snapshot_every_seconds);
        while (std::chrono::steady_clock::now() < deadline) {
            if (stop_requested()) return;
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        if (stop_requested()) return;
        snapshot_pool();
    }
}

void SolveServer::snapshot_pool() {
    const std::string err = pool_->save(config_.pool_file);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    if (err.empty()) {
        ++snapshots_taken_;
        last_snapshot_error_.clear();
    } else {
        last_snapshot_error_ = err;
    }
}

void SolveServer::reply(const std::shared_ptr<Connection>& conn,
                        const util::Json& body) {
    const std::string payload = body.dump();
    const std::lock_guard<std::mutex> lock(conn->write_mutex);
    // A failed write means the client is gone; its reader will see the
    // hangup and retire the connection — nothing to do here.
    (void)write_frame(conn->fd, payload);
}

void SolveServer::reply_error(const std::shared_ptr<Connection>& conn,
                              const util::Json& id, const char* code,
                              const std::string& message) {
    util::Json body = util::Json::object();
    body.set("ok", false);
    if (!id.is_null()) body.set("id", id);
    body.set("code", code);
    body.set("error", message);
    reply(conn, body);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    if (std::strcmp(code, "queue-full") == 0) {
        ++errors_queue_full_;
    } else if (std::strcmp(code, "unknown-scenario") == 0) {
        ++errors_unknown_scenario_;
    } else if (std::strcmp(code, "shutting-down") == 0) {
        ++errors_shutting_down_;
    } else {
        ++errors_bad_request_;
    }
}

util::Json SolveServer::list_json() const {
    // Sorted names via the registry, each with its description — the
    // served form of `gact list`.
    const engine::ScenarioRegistry& registry =
        engine::ScenarioRegistry::standard();
    std::vector<const engine::ScenarioSpec*> sorted;
    sorted.reserve(registry.specs().size());
    for (const engine::ScenarioSpec& spec : registry.specs()) {
        sorted.push_back(&spec);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const engine::ScenarioSpec* a,
                 const engine::ScenarioSpec* b) { return a->name < b->name; });
    util::Json out = util::Json::array();
    for (const engine::ScenarioSpec* spec : sorted) {
        util::Json entry = util::Json::object();
        entry.set("name", spec->name);
        entry.set("description", spec->description);
        entry.set("heavy", spec->heavy);
        out.push_back(std::move(entry));
    }
    return out;
}

util::Json SolveServer::families_json() const {
    // The structured family schemas: clients learn the whole parameter
    // space (grammar, ranges, model variants), not just the registered
    // points — any in-range canonical name is solvable by this server.
    util::Json out = util::Json::array();
    for (const engine::ScenarioFamily& f :
         engine::ScenarioRegistry::standard().families()) {
        out.push_back(f.schema_json());
    }
    return out;
}

util::Json SolveServer::stats_json() const {
    util::Json out = util::Json::object();
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    out.set("uptime_ms", millis_between(started_at_, now));
    out.set("queue_depth", queue_.depth());
    out.set("queue_capacity", queue_.capacity());
    out.set("in_flight", in_flight_);
    out.set("workers", static_cast<std::size_t>(config_.workers));
    out.set("connections_accepted", connections_accepted_);
    out.set("connections_refused", connections_refused_);
    out.set("requests_received", requests_received_);
    out.set("solves_completed", solves_completed_);

    util::Json verdicts = util::Json::object();
    verdicts.set(engine::to_string(engine::Verdict::kSolvable),
                 verdict_counts_[static_cast<int>(
                     engine::Verdict::kSolvable)]);
    verdicts.set(engine::to_string(engine::Verdict::kUnsolvableAtDepth),
                 verdict_counts_[static_cast<int>(
                     engine::Verdict::kUnsolvableAtDepth)]);
    verdicts.set(engine::to_string(engine::Verdict::kBudgetExhausted),
                 verdict_counts_[static_cast<int>(
                     engine::Verdict::kBudgetExhausted)]);
    verdicts.set(engine::to_string(engine::Verdict::kUnsupported),
                 verdict_counts_[static_cast<int>(
                     engine::Verdict::kUnsupported)]);
    out.set("verdicts", std::move(verdicts));

    util::Json errors = util::Json::object();
    errors.set("bad_request", errors_bad_request_);
    errors.set("unknown_scenario", errors_unknown_scenario_);
    errors.set("queue_full", errors_queue_full_);
    errors.set("timeout", errors_timeout_);
    errors.set("shutting_down", errors_shutting_down_);
    out.set("errors", std::move(errors));

    util::Json pool = util::Json::object();
    pool.set("nogoods", pool_->published());
    pool.set("rejected_duplicate", pool_->rejected_as_duplicate());
    pool.set("rejected_at_capacity", pool_->rejected_at_capacity());
    pool.set("snapshots_taken", snapshots_taken_);
    if (!last_snapshot_error_.empty()) {
        pool.set("last_snapshot_error", last_snapshot_error_);
    }
    out.set("pool", std::move(pool));

    out.set("counters", engine::counters_to_json(cumulative_counters_));

    // Scheduler observability (exec/exec_stats.h): how the solve tasks
    // actually ran — steals signal imbalance, the histogram shows task
    // granularity. Null only before start() / after a failed start.
    if (scheduler_ != nullptr) {
        const exec::ExecStats es = scheduler_->stats();
        util::Json exec_stats = util::Json::object();
        exec_stats.set("workers", es.workers);
        exec_stats.set("tasks_executed", es.tasks_executed);
        exec_stats.set("tasks_stolen", es.tasks_stolen);
        exec_stats.set("tasks_overflow", es.tasks_overflow);
        exec_stats.set("tasks_helped", es.tasks_helped);
        exec_stats.set("queue_depth", es.queue_depth);
        util::Json hist = util::Json::array();
        for (std::size_t count : es.latency_log2_us) hist.push_back(count);
        exec_stats.set("latency_log2_us", std::move(hist));
        out.set("exec", std::move(exec_stats));
    }
    return out;
}

// ------------------------------------------------------------ signal wiring

namespace {

std::atomic<SolveServer*> g_signal_server{nullptr};
struct sigaction g_prev_sigint;
struct sigaction g_prev_sigterm;

extern "C" void gact_service_stop_handler(int) {
    // One relaxed atomic load + one relaxed atomic store: everything
    // here is async-signal-safe. The drain itself runs on the main
    // thread once wait_until_stop_requested() observes the flag.
    SolveServer* server = g_signal_server.load(std::memory_order_relaxed);
    if (server != nullptr) server->request_stop();
}

}  // namespace

void install_stop_signal_handlers(SolveServer& server) {
    g_signal_server.store(&server, std::memory_order_relaxed);
    struct sigaction sa{};
    sa.sa_handler = gact_service_stop_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGINT, &sa, &g_prev_sigint);
    ::sigaction(SIGTERM, &sa, &g_prev_sigterm);
}

void uninstall_stop_signal_handlers() {
    ::sigaction(SIGINT, &g_prev_sigint, nullptr);
    ::sigaction(SIGTERM, &g_prev_sigterm, nullptr);
    g_signal_server.store(nullptr, std::memory_order_relaxed);
}

}  // namespace gact::service
