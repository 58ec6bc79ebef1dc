// gact_client — one-shot CLI client for the gact_serve solve server.
//
// Usage:
//   gact_client [--host H] [--port N] solve SCENARIO [--timeout-ms N]
//   gact_client [--host H] [--port N] stats
//   gact_client [--host H] [--port N] list
//
// Prints the server's reply JSON to stdout.
//
// Exit codes (pinned by tools/exit_codes_e2e.cmake, aligned with
// gact_fuzz and example_engine_cli):
//   0  the server replied ok
//   1  the server replied, but with ok: false (a solver-level failure —
//      unknown scenario, queue-full, timeout)
//   2  usage error: unknown command or argument, missing scenario, or a
//      --port / --timeout-ms value that is malformed or out of range
//   3  transport error (connect or request failed: no server, broken
//      connection) — the reply never arrived, so 1 would misreport a
//      solver-level answer
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "service/client.h"
#include "util/cli.h"
#include "util/json.h"

namespace {

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--host H] [--port N] solve SCENARIO "
                 "[--timeout-ms N]\n"
                 "       %s [--host H] [--port N] stats\n"
                 "       %s [--host H] [--port N] list\n",
                 argv0, argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
    std::string host = "127.0.0.1";
    unsigned port = 7461;
    std::string command;
    std::string scenario;
    std::uint32_t timeout_ms = 0;
    bool has_timeout = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--host") {
            host = value();
        } else if (arg == "--port") {
            const char* text = value();
            if (!gact::util::parse_count(text, port, 1u, 65535u)) {
                std::fprintf(stderr, "bad --port '%s' (want 1..65535)\n",
                             text);
                return 2;
            }
        } else if (arg == "--timeout-ms") {
            const char* text = value();
            if (!gact::util::parse_count(text, timeout_ms)) {
                std::fprintf(stderr,
                             "bad --timeout-ms '%s' (want 0..4294967295)\n",
                             text);
                return 2;
            }
            has_timeout = true;
        } else if (command.empty()) {
            command = arg;
        } else if (command == "solve" && scenario.empty()) {
            scenario = arg;
        } else {
            std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (command != "solve" && command != "stats" && command != "list") {
        usage(argv[0]);
        return 2;
    }
    if (command == "solve" && scenario.empty()) {
        std::fprintf(stderr, "solve needs a scenario name\n");
        return 2;
    }

    gact::util::Json request = gact::util::Json::object();
    request.set("type", gact::util::Json(command));
    if (command == "solve") {
        request.set("scenario", gact::util::Json(scenario));
        if (has_timeout) {
            request.set("timeout_ms",
                        gact::util::Json(static_cast<std::uint64_t>(
                            timeout_ms)));
        }
    }

    gact::service::ServiceClient client;
    std::string err =
        client.connect(host, static_cast<std::uint16_t>(port));
    if (!err.empty()) {
        std::fprintf(stderr, "gact_client: %s\n", err.c_str());
        return 3;
    }
    const std::optional<gact::util::Json> reply =
        client.request(request, &err);
    if (!reply.has_value()) {
        std::fprintf(stderr, "gact_client: %s\n", err.c_str());
        return 3;
    }
    std::printf("%s\n", reply->dump().c_str());
    const gact::util::Json* ok = reply->find("ok");
    if (ok != nullptr && ok->is_bool() && ok->as_bool()) return 0;
    // Solver-level failure: surface the server's diagnostic on stderr
    // too — for unknown-scenario errors it carries the full family
    // grammar, which is unreadable embedded in a one-line JSON dump.
    if (const gact::util::Json* error = reply->find("error")) {
        if (error->is_string()) {
            std::fprintf(stderr, "gact_client: server error: %s\n",
                         error->as_string().c_str());
        }
    }
    return 1;
}
