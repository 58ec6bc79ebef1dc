// The engine's JSON surface: one serialization of SolveReport and one
// parser of scenario requests, shared by every consumer.
//
// Two surfaces speak engine results over text: the service layer
// (src/service/) answers solve requests with serialized SolveReports,
// and `gact solve --json` prints the same objects to stdout. Both
// call report_to_json(), so the wire format and the CLI format are one
// definition that cannot drift. The same goes for the request side:
// scenario_from_request() resolves a registry name plus inline
// EngineOptions overrides into a ready-to-solve Scenario, and is the
// single interpreter of the {"scenario": ..., "options": {...}} shape.
//
// The witness itself stays out of the JSON (a subdivision-depth vertex
// map is megabytes of rationals nobody diffs); what crosses the wire is
// its order-independent digest — the same digest `gact solve` prints,
// computed by witness_digest() here so the CLI, the service, and the
// e2e gates compare one canonical value.
#pragma once

#include <cstdint>
#include <string>

#include "engine/engine.h"
#include "util/json.h"

namespace gact::engine {

/// Order-independent FNV-style digest of a witness's vertex map: two
/// processes assert bit-identical witnesses by comparing one value (an
/// unordered_map's iteration order is not stable across processes; XOR
/// of per-pair hashes is).
std::uint64_t witness_digest(const core::SimplicialMap& map);

/// witness_digest() as the canonical 16-hex-digit string.
std::string witness_digest_hex(const core::SimplicialMap& map);

/// Every SearchCounters field as a JSON object (a static_assert in
/// report_json.cpp pins the field count so a new counter cannot be
/// silently dropped from the format). Shared by report_to_json and the
/// service's cumulative-stats reply.
util::Json counters_to_json(const core::SearchCounters& c);

/// Serialize a report for the wire / --json: scenario, verdict, detail,
/// warnings, witness digest + vertex count (when present), every
/// SearchCounters field, per-stage timings, and the human summary()
/// line.
util::Json report_to_json(const SolveReport& report);

/// Apply inline overrides from a JSON object onto `options`. Accepted
/// keys (the request-facing subset of EngineOptions — knobs that shape
/// budgets and the problem, not ones that alias server-owned resources
/// like nogood_pool): "max_depth", "subdivision_stages",
/// "max_backtracks", "shard_threads", "fix_identity",
/// "run_prefix_depth", "max_landing_round", "time_budget_ms".
/// The CSP engine is not a wire option: there are two engines, fast
/// and naive as the reference, and requests always run fast.
/// Returns "" on success, else a diagnostic naming the offending key
/// (unknown keys are errors: a typo must not silently solve with
/// defaults; integers the target field cannot hold are errors too, not
/// wraparounds).
std::string apply_options_json(const util::Json& overrides,
                               EngineOptions& options);

/// Resolve a solve-request JSON object into a Scenario: {"scenario":
/// "<registry name>"} selects from ScenarioRegistry::standard(), and an
/// optional {"options": {...}} object applies apply_options_json()
/// overrides on top of the scenario's registered defaults. On failure
/// `error` gets a diagnostic (for an unknown name it includes the
/// sorted list of registered names) and nullopt is returned.
std::optional<Scenario> scenario_from_request(const util::Json& request,
                                              std::string* error);

}  // namespace gact::engine
