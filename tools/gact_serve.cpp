// gact_serve — the long-running solve server binary.
//
// Binds a TCP port, keeps one resident nogood pool warm across every
// request, and drains gracefully on SIGINT/SIGTERM: stop accepting,
// finish admitted solves, snapshot the pool, exit 0. The wire protocol
// and threading model live in src/service/server.h.
//
// Usage:
//   gact_serve [--port N] [--threads N] [--queue-depth N]
//              [--max-connections N] [--pool-file PATH]
//              [--snapshot-every SECONDS] [--timeout-ms N]
//              [--bind ADDR]
//
// Exit codes (pinned by tools/exit_codes_e2e.cmake):
//   0  stopped cleanly after SIGINT/SIGTERM
//   1  the server could not start (bad bind address, port in use)
//   2  usage error: unknown option, missing value, or a numeric value
//      that is malformed or out of range
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "service/server.h"
#include "util/cli.h"

namespace {

void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --port N             TCP port (default 7461; 0 = ephemeral)\n"
        "  --bind ADDR          bind address (default 127.0.0.1)\n"
        "  --threads N          solve worker threads, 1..1024 (default 2)\n"
        "  --queue-depth N      admission queue bound (default 16)\n"
        "  --max-connections N  live-connection bound; accepts beyond\n"
        "                       it are refused (default 256)\n"
        "  --pool-file PATH     load/snapshot the nogood pool here\n"
        "  --snapshot-every S   snapshot period in seconds (default 0:\n"
        "                       only the final shutdown snapshot)\n"
        "  --timeout-ms N       default queue-wait deadline per request,\n"
        "                       0..4294967295 (default 0: none)\n"
        "Bad values exit 2.\n",
        argv0);
}

// The same worker cap as GACT_EXEC_THREADS (exec/scheduler.cpp).
constexpr unsigned kMaxThreads = 1024;

}  // namespace

int main(int argc, char** argv) {
    gact::service::ServiceConfig config;
    config.port = 7461;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // Every numeric flag is a plain decimal in its field's range
        // (util/cli.h): "-1" must not wrap and "2x" must not read as 2.
        const auto bad = [&](const char* text, const char* range) {
            std::fprintf(stderr, "bad %s '%s' (want %s)\n", arg.c_str(),
                         text, range);
            return 2;
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--port") {
            const char* text = value();
            unsigned port = 0;
            if (!gact::util::parse_count(text, port, 0u, 65535u)) {
                return bad(text, "0..65535");
            }
            config.port = static_cast<std::uint16_t>(port);
        } else if (arg == "--bind") {
            config.bind_address = value();
        } else if (arg == "--threads") {
            const char* text = value();
            if (!gact::util::parse_count(text, config.workers, 1u,
                                         kMaxThreads)) {
                return bad(text, "1..1024");
            }
        } else if (arg == "--queue-depth") {
            const char* text = value();
            if (!gact::util::parse_count(text, config.queue_depth,
                                         std::size_t{1})) {
                return bad(text, "a count >= 1");
            }
        } else if (arg == "--max-connections") {
            const char* text = value();
            if (!gact::util::parse_count(text, config.max_connections,
                                         std::size_t{1})) {
                return bad(text, "a count >= 1");
            }
        } else if (arg == "--pool-file") {
            config.pool_file = value();
        } else if (arg == "--snapshot-every") {
            const char* text = value();
            if (!gact::util::parse_count(text,
                                         config.snapshot_every_seconds)) {
                return bad(text, "0..4294967295 seconds");
            }
        } else if (arg == "--timeout-ms") {
            const char* text = value();
            std::uint32_t timeout_ms = 0;
            if (!gact::util::parse_count(text, timeout_ms)) {
                return bad(text, "0..4294967295 ms");
            }
            config.default_timeout_ms = timeout_ms;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    gact::service::SolveServer server(std::move(config));
    const std::string err = server.start();
    if (!err.empty()) {
        std::fprintf(stderr, "gact_serve: %s\n", err.c_str());
        return 1;
    }
    if (!server.startup_warning().empty()) {
        std::fprintf(stderr, "gact_serve: warning: %s\n",
                     server.startup_warning().c_str());
    }
    std::printf("gact_serve listening on port %u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    gact::service::install_stop_signal_handlers(server);
    server.wait_until_stop_requested();
    std::printf("gact_serve: draining...\n");
    std::fflush(stdout);
    server.stop();
    gact::service::uninstall_stop_signal_handlers();
    std::printf("gact_serve: stopped\n");
    return 0;
}
