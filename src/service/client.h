// The client half of gact::service: one TCP connection speaking the
// length-prefixed JSON framing.
//
// Thin by design — connect, send a request object, await a reply
// object. `gact client` (tools/gact.cpp), the load generator
// (bench/bench_service_load.cpp), and the loopback e2e tests all drive
// the server through this class, so the client-side framing exists in
// exactly one place. send()/receive() are exposed separately from
// request() because backpressure tests and pipelining clients need to
// put several requests in flight before draining replies (replies to
// pipelined requests carry the echoed "id" for correlation).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "service/framing.h"
#include "util/json.h"

namespace gact::service {

class ServiceClient {
public:
    ServiceClient() = default;
    ~ServiceClient() { close(); }

    ServiceClient(const ServiceClient&) = delete;
    ServiceClient& operator=(const ServiceClient&) = delete;

    /// Connect to host:port (IPv4 dotted quad or resolvable name).
    /// Returns "" on success, else a diagnostic.
    std::string connect(const std::string& host, std::uint16_t port);

    bool connected() const noexcept { return fd_ >= 0; }

    /// Frame and send one request object. Returns "" or a diagnostic.
    std::string send(const util::Json& request);

    /// Block for the next reply frame. nullopt on close/error (with
    /// `error` explaining when non-null).
    std::optional<util::Json> receive(std::string* error = nullptr);

    /// send() + receive(): the closed-loop round trip.
    std::optional<util::Json> request(const util::Json& req,
                                      std::string* error = nullptr);

    void close();

private:
    int fd_ = -1;
};

}  // namespace gact::service
