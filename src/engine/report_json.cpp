#include "engine/report_json.h"

#include <cstdio>
#include <functional>
#include <limits>

#include "engine/scenario_registry.h"

namespace gact::engine {

std::uint64_t witness_digest(const core::SimplicialMap& map) {
    // XOR of a splitmix64-style mix of each (vertex, image) pair:
    // order-independent (the map iterates in unspecified order) and
    // fully specified — no std::hash, whose output is implementation-
    // defined and would make digests differ across standard libraries.
    // (The CLI's original digest multiplied (hash | 1) by a constant,
    // which collided pairs differing only in their lowest bit.)
    std::uint64_t digest = 0x9e3779b97f4a7c15ULL;
    for (const auto& [v, w] : map.vertex_map()) {
        std::uint64_t x = (static_cast<std::uint64_t>(v) << 32) | w;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        digest ^= x;
    }
    return digest;
}

std::string witness_digest_hex(const core::SimplicialMap& map) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(witness_digest(map)));
    return buf;
}

// Every SearchCounters field crosses the wire; a new one must be added
// to counters_to_json below AND to the round-trip assertions in
// tests/report_json_test.cpp, then this count bumped (the same guard
// idiom as SearchCounters::add in chromatic_csp.cpp).
static_assert(sizeof(core::SearchCounters) == 9 * sizeof(std::size_t),
              "SearchCounters gained or lost a field: update "
              "counters_to_json(), the report_json round-trip test, and "
              "this count");

util::Json counters_to_json(const core::SearchCounters& c) {
    util::Json out = util::Json::object();
    out.set("backtracks", c.backtracks);
    out.set("nogood_prunings", c.nogood_prunings);
    out.set("nogoods_recorded", c.nogoods_recorded);
    out.set("nogoods_evicted", c.nogoods_evicted);
    out.set("backjumps", c.backjumps);
    out.set("pool_seeded", c.pool_seeded);
    out.set("pool_published", c.pool_published);
    out.set("eval_cache_hits", c.eval_cache_hits);
    out.set("eval_cache_misses", c.eval_cache_misses);
    return out;
}

namespace {

std::string hex16(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

}  // namespace

util::Json report_to_json(const SolveReport& report) {
    util::Json out = util::Json::object();
    out.set("scenario", report.scenario);
    out.set("verdict", to_string(report.verdict));
    out.set("detail", report.detail);
    if (!report.warnings.empty()) {
        util::Json warnings = util::Json::array();
        for (const std::string& w : report.warnings) warnings.push_back(w);
        out.set("warnings", std::move(warnings));
    }
    out.set("witness_depth", static_cast<std::int64_t>(report.witness_depth));
    if (report.witness.has_value()) {
        util::Json witness = util::Json::object();
        witness.set("digest", witness_digest_hex(*report.witness));
        witness.set("vertices", report.witness->size());
        out.set("witness", std::move(witness));
    }
    out.set("total_backtracks", report.total_backtracks);
    out.set("counters", counters_to_json(report.counters));
    util::Json timings = util::Json::array();
    for (const StageTiming& t : report.timings) {
        util::Json stage = util::Json::object();
        stage.set("stage", t.stage);
        stage.set("millis", t.millis);
        timings.push_back(std::move(stage));
    }
    out.set("timings", std::move(timings));
    if (report.executed_check.has_value()) {
        const ExecutedCheck& ec = *report.executed_check;
        util::Json check = util::Json::object();
        check.set("schedules", ec.schedules);
        check.set("violations", ec.violations);
        check.set("seed", static_cast<std::int64_t>(ec.seed));
        check.set("result_digest", hex16(ec.result_digest));
        check.set("skipped", ec.skipped);
        check.set("detail", ec.detail);
        out.set("executed_check", std::move(check));
    }
    out.set("summary", report.summary());
    return out;
}

namespace {

/// One overridable knob: validate the JSON value's type/range and
/// assign. Each returns "" or a diagnostic naming the key.
///
/// Integers are range-checked against the target field's type, so a
/// value the field cannot hold is rejected instead of wrapping around
/// (2^31 into an int max_depth, 2^32 into an unsigned shard count).
template <typename T>
std::string expect_uint(const util::Json& v, const std::string& key,
                        T& out) {
    if (!v.is_int() || v.as_int() < 0) {
        return "option '" + key + "' must be a non-negative integer";
    }
    const auto value = static_cast<std::uint64_t>(v.as_int());
    if (value > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
        return "option '" + key + "' must be at most " +
               std::to_string(std::numeric_limits<T>::max());
    }
    out = static_cast<T>(value);
    return "";
}

std::string expect_bool(const util::Json& v, const std::string& key,
                        bool& out) {
    if (!v.is_bool()) return "option '" + key + "' must be a boolean";
    out = v.as_bool();
    return "";
}

}  // namespace

std::string apply_options_json(const util::Json& overrides,
                               EngineOptions& options) {
    if (!overrides.is_object()) {
        return "'options' must be a JSON object";
    }
    for (const auto& [key, value] : overrides.as_object()) {
        std::string err;
        if (key == "max_depth") {
            err = expect_uint(value, key, options.max_depth);
        } else if (key == "subdivision_stages") {
            err = expect_uint(value, key, options.subdivision_stages);
        } else if (key == "max_backtracks") {
            err = expect_uint(value, key, options.solver.max_backtracks);
        } else if (key == "shard_threads") {
            unsigned threads = 0;
            err = expect_uint(value, key, threads);
            if (err.empty() && threads == 0) {
                err = "option 'shard_threads' must be >= 1";
            }
            if (err.empty()) options.shard_threads = threads;
        } else if (key == "fix_identity") {
            err = expect_bool(value, key, options.fix_identity);
        } else if (key == "run_prefix_depth") {
            err = expect_uint(value, key, options.run_prefix_depth);
        } else if (key == "max_landing_round") {
            err = expect_uint(value, key, options.max_landing_round);
        } else if (key == "time_budget_ms") {
            err = expect_uint(value, key, options.time_budget_ms);
        } else {
            err = "unknown option '" + key + "'";
        }
        if (!err.empty()) return err;
    }
    return "";
}

std::optional<Scenario> scenario_from_request(const util::Json& request,
                                              std::string* error) {
    const auto fail = [&](std::string what) -> std::optional<Scenario> {
        if (error != nullptr) *error = std::move(what);
        return std::nullopt;
    };
    if (!request.is_object()) return fail("request must be a JSON object");
    const util::Json* name = request.find("scenario");
    if (name == nullptr || !name->is_string() ||
        name->as_string().empty()) {
        return fail("request needs a non-empty string 'scenario' field");
    }
    // The registry resolves registered names (including the legacy
    // aliases) and any canonical family name (`lt-3-1-res1` style); its
    // diagnostic cites the family grammar for near-miss names and the
    // grammar summary plus registered names otherwise.
    const ScenarioRegistry& registry = ScenarioRegistry::standard();
    std::string why;
    std::optional<Scenario> scenario =
        registry.find(name->as_string(), &why);
    if (!scenario.has_value()) {
        return fail("unknown scenario '" + name->as_string() + "': " +
                    why);
    }
    if (const util::Json* overrides = request.find("options")) {
        const std::string err =
            apply_options_json(*overrides, scenario->options);
        if (!err.empty()) return fail(err);
    }
    return scenario;
}

}  // namespace gact::engine
