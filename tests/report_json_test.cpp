// engine/report_json: the one serialization of SolveReport and the one
// interpreter of solve-request JSON. The round-trip assertions here are
// half of the static_assert guard in report_json.cpp — a SearchCounters
// field added without a line in counters_to_json() fails the count
// there; one added to counters_to_json() without a check here fails the
// distinct-values sweep below.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "engine/engine.h"
#include "engine/report_json.h"
#include "engine/scenario_registry.h"
#include "util/json.h"

namespace gact::engine {
namespace {

const util::Json* field(const util::Json& obj, const std::string& key) {
    const util::Json* v = obj.find(key);
    EXPECT_NE(v, nullptr) << "missing field '" << key << "'";
    return v;
}

TEST(ReportJson, CountersCarryEveryFieldDistinctly) {
    // Distinct primes per field: any swap, drop, or duplication in
    // counters_to_json shows up as a mismatched value.
    core::SearchCounters c;
    c.backtracks = 2;
    c.nogood_prunings = 3;
    c.nogoods_recorded = 5;
    c.nogoods_evicted = 7;
    c.backjumps = 13;
    c.pool_seeded = 17;
    c.pool_published = 19;
    c.eval_cache_hits = 31;
    c.eval_cache_misses = 37;
    const util::Json j = counters_to_json(c);
    EXPECT_EQ(field(j, "backtracks")->as_int(), 2);
    EXPECT_EQ(field(j, "nogood_prunings")->as_int(), 3);
    EXPECT_EQ(field(j, "nogoods_recorded")->as_int(), 5);
    EXPECT_EQ(field(j, "nogoods_evicted")->as_int(), 7);
    EXPECT_EQ(field(j, "backjumps")->as_int(), 13);
    EXPECT_EQ(field(j, "pool_seeded")->as_int(), 17);
    EXPECT_EQ(field(j, "pool_published")->as_int(), 19);
    EXPECT_EQ(field(j, "eval_cache_hits")->as_int(), 31);
    EXPECT_EQ(field(j, "eval_cache_misses")->as_int(), 37);
    EXPECT_EQ(j.as_object().size(), 9u)
        << "field count drifted from SearchCounters";
}

TEST(ReportJson, SolvedReportSerializesWitnessDigestAndTimings) {
    auto scenario = ScenarioRegistry::standard().find("is-1-wf");
    ASSERT_TRUE(scenario.has_value());
    const Engine eng;
    const SolveReport report = eng.solve(*scenario);
    ASSERT_EQ(report.verdict, Verdict::kSolvable);
    ASSERT_TRUE(report.witness.has_value());

    const util::Json j = report_to_json(report);
    EXPECT_EQ(field(j, "scenario")->as_string(), "is-1-wf");
    EXPECT_EQ(field(j, "verdict")->as_string(), "solvable");
    const util::Json* witness = field(j, "witness");
    ASSERT_NE(witness, nullptr);
    EXPECT_EQ(field(*witness, "digest")->as_string(),
              witness_digest_hex(*report.witness));
    EXPECT_EQ(static_cast<std::size_t>(
                  field(*witness, "vertices")->as_int()),
              report.witness->size());
    EXPECT_EQ(field(j, "summary")->as_string(), report.summary());
    EXPECT_FALSE(field(j, "timings")->as_array().empty());
    // No warnings -> no warnings key (absence, not an empty array).
    EXPECT_EQ(j.find("warnings"), nullptr);

    // The whole report must survive a dump/parse cycle: this is what
    // actually crosses the wire.
    std::string error;
    const auto back = util::Json::parse(j.dump(), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_TRUE(*back == j);
}

TEST(ReportJson, DigestIsOrderIndependentAndStable) {
    // Two maps with the same pairs inserted in different orders digest
    // identically — the property that makes cross-process comparison
    // sound — and distinct maps digest apart.
    core::SimplicialMap a;
    a.set(1, 10);
    a.set(2, 20);
    a.set(3, 30);
    core::SimplicialMap b;
    b.set(3, 30);
    b.set(1, 10);
    b.set(2, 20);
    EXPECT_EQ(witness_digest(a), witness_digest(b));
    EXPECT_EQ(witness_digest_hex(a).size(), 16u);

    core::SimplicialMap c;
    c.set(1, 10);
    c.set(2, 20);
    c.set(3, 31);
    EXPECT_NE(witness_digest(a), witness_digest(c));
}

TEST(ReportJson, OptionOverridesApplyToTheRightKnobs) {
    EngineOptions options;
    util::Json overrides = util::Json::object();
    overrides.set("max_depth", 5);
    overrides.set("max_backtracks", 1234);
    overrides.set("shard_threads", 3);
    overrides.set("fix_identity", false);
    overrides.set("run_prefix_depth", 2);
    ASSERT_EQ(apply_options_json(overrides, options), "");
    EXPECT_EQ(options.max_depth, 5);
    EXPECT_EQ(options.solver.max_backtracks, 1234u);
    EXPECT_EQ(options.shard_threads, 3u);
    EXPECT_FALSE(options.fix_identity);
    EXPECT_EQ(options.run_prefix_depth, 2u);
}

TEST(ReportJson, OptionOverridesRejectBadInput) {
    EngineOptions options;
    const EngineOptions defaults;

    util::Json unknown = util::Json::object();
    unknown.set("max_deppth", 5);  // typo
    std::string err = apply_options_json(unknown, options);
    EXPECT_NE(err.find("unknown option 'max_deppth'"), std::string::npos)
        << err;

    util::Json wrong_type = util::Json::object();
    wrong_type.set("fix_identity", 1);  // must be a boolean
    EXPECT_NE(apply_options_json(wrong_type, options), "");

    util::Json negative = util::Json::object();
    negative.set("max_backtracks", -1);
    EXPECT_NE(apply_options_json(negative, options), "");

    util::Json zero_threads = util::Json::object();
    zero_threads.set("shard_threads", 0);
    EXPECT_NE(apply_options_json(zero_threads, options), "");

    // Values the target field cannot hold are rejected with a
    // diagnostic naming the key, never narrowed: 2^31 used to land in
    // the int max_depth as -2^31, 2^32 + 3 as 3, and 2^32 in the
    // unsigned shard_threads as 0 (slipping past its >= 1 check).
    const struct {
        const char* key;
        std::int64_t value;
    } out_of_range[] = {
        {"max_depth", std::int64_t{2147483648}},
        {"max_depth", std::int64_t{4294967299}},
        {"shard_threads", std::int64_t{4294967296}},
        {"run_prefix_depth", std::int64_t{4294967296}},
    };
    for (const auto& c : out_of_range) {
        util::Json too_big = util::Json::object();
        too_big.set(c.key, c.value);
        err = apply_options_json(too_big, options);
        EXPECT_NE(err.find(std::string("option '") + c.key + "'"),
                  std::string::npos)
            << c.key << "=" << c.value << ": " << err;
    }
    // The largest value each field holds is still accepted.
    util::Json at_max = util::Json::object();
    at_max.set("max_depth", std::int64_t{2147483647});
    EngineOptions widest;
    EXPECT_EQ(apply_options_json(at_max, widest), "");
    EXPECT_EQ(widest.max_depth, 2147483647);

    // The solver's former engine knobs are gone from the wire: they
    // get the ordinary unknown-option diagnostic.
    for (const char* removed :
         {"num_threads", "nogood_learning", "restarts", "nogood_gc",
          "backjumping", "live_exchange"}) {
        util::Json old_knob = util::Json::object();
        old_knob.set(removed, true);
        err = apply_options_json(old_knob, options);
        EXPECT_NE(err.find(std::string("unknown option '") + removed + "'"),
                  std::string::npos)
            << err;
    }

    EXPECT_NE(apply_options_json(util::Json(5), options), "");

    // Every rejection left the options untouched (the accepted knobs).
    EXPECT_EQ(options.solver.max_backtracks,
              defaults.solver.max_backtracks);
    EXPECT_EQ(options.max_depth, defaults.max_depth);
    EXPECT_EQ(options.shard_threads, defaults.shard_threads);
    EXPECT_EQ(options.run_prefix_depth, defaults.run_prefix_depth);
    EXPECT_EQ(options.fix_identity, defaults.fix_identity);
}

TEST(ReportJson, ScenarioFromRequestResolvesNamesAndOverrides) {
    util::Json request = util::Json::object();
    request.set("scenario", "chr2-2p-wf");
    util::Json overrides = util::Json::object();
    overrides.set("max_backtracks", 777);
    request.set("options", std::move(overrides));
    std::string error;
    const auto scenario = scenario_from_request(request, &error);
    ASSERT_TRUE(scenario.has_value()) << error;
    EXPECT_EQ(scenario->name, "chr2-2p-wf");
    EXPECT_EQ(scenario->options.solver.max_backtracks, 777u);
}

TEST(ReportJson, UnknownScenarioErrorListsTheRegistry) {
    util::Json request = util::Json::object();
    request.set("scenario", "definitely-not-registered");
    std::string error;
    EXPECT_FALSE(scenario_from_request(request, &error).has_value());
    EXPECT_NE(error.find("definitely-not-registered"), std::string::npos)
        << error;
    // The diagnostic names what IS available, sorted.
    for (const std::string& name :
         ScenarioRegistry::standard().names()) {
        EXPECT_NE(error.find(name), std::string::npos)
            << "missing '" << name << "' in: " << error;
    }
}

TEST(ReportJson, RequestWithoutScenarioFieldIsRejected) {
    std::string error;
    EXPECT_FALSE(
        scenario_from_request(util::Json::object(), &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(
        scenario_from_request(util::Json("just a string"), &error)
            .has_value());
    util::Json empty_name = util::Json::object();
    empty_name.set("scenario", "");
    EXPECT_FALSE(scenario_from_request(empty_name, &error).has_value());
}

TEST(ReportJson, BadOptionsInRequestRejectTheWholeRequest) {
    util::Json request = util::Json::object();
    request.set("scenario", "is-1-wf");
    util::Json overrides = util::Json::object();
    overrides.set("no_such_knob", true);
    request.set("options", std::move(overrides));
    std::string error;
    EXPECT_FALSE(scenario_from_request(request, &error).has_value());
    EXPECT_NE(error.find("no_such_knob"), std::string::npos) << error;
}

}  // namespace
}  // namespace gact::engine
