// gact::util::Json — the minimal JSON value the service wire format and
// `gact solve --json` are built on. Strictness matters more than
// features here: every reject case below is a payload the server must
// answer with a clean error instead of misreading.
#include <gtest/gtest.h>

#include <string>

#include "util/json.h"
#include "util/require.h"

namespace gact::util {
namespace {

Json parse_ok(const std::string& text) {
    std::string error;
    auto j = Json::parse(text, &error);
    EXPECT_TRUE(j.has_value()) << text << " -> " << error;
    return j.value_or(Json());
}

void expect_reject(const std::string& text, const std::string& label) {
    std::string error;
    const auto j = Json::parse(text, &error);
    EXPECT_FALSE(j.has_value()) << label << ": parsed " << text;
    EXPECT_FALSE(error.empty()) << label;
}

TEST(Json, ScalarsRoundTrip) {
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(nullptr).dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(0).dump(), "0");
    EXPECT_EQ(Json(-42).dump(), "-42");
    EXPECT_EQ(Json(std::int64_t{9007199254740993}).dump(),
              "9007199254740993");  // above 2^53: stays exact as kInt
    EXPECT_EQ(Json(1.5).dump(), "1.5");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");

    EXPECT_TRUE(parse_ok("null").is_null());
    EXPECT_EQ(parse_ok("true").as_bool(), true);
    EXPECT_EQ(parse_ok("-42").as_int(), -42);
    EXPECT_EQ(parse_ok("9007199254740993").as_int(), 9007199254740993LL);
    EXPECT_DOUBLE_EQ(parse_ok("1.5").as_double(), 1.5);
    EXPECT_DOUBLE_EQ(parse_ok("1e3").as_double(), 1000.0);
    EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");
    // Integer-typed values satisfy as_double too (is_number contract).
    EXPECT_DOUBLE_EQ(parse_ok("7").as_double(), 7.0);
}

TEST(Json, ContainersRoundTripPreservingOrder) {
    Json obj = Json::object();
    obj.set("zeta", Json(1));
    obj.set("alpha", Json::array());
    Json arr = Json::array();
    arr.push_back(Json("x"));
    arr.push_back(Json(false));
    arr.push_back(Json());
    obj.set("list", std::move(arr));
    // Insertion order, NOT alphabetical: the wire format is
    // deterministic because serialization follows build order.
    const std::string text = obj.dump();
    EXPECT_EQ(text, "{\"zeta\":1,\"alpha\":[],\"list\":[\"x\",false,null]}");

    const Json back = parse_ok(text);
    EXPECT_TRUE(back == obj);
    ASSERT_NE(back.find("list"), nullptr);
    EXPECT_EQ(back.find("list")->as_array().size(), 3u);
    EXPECT_EQ(back.find("missing"), nullptr);
}

TEST(Json, StringEscapesRoundTrip) {
    const std::string raw = "quote\" back\\ slash/ \n\t\r ctrl\x01 end";
    const Json j(raw);
    const std::string dumped = j.dump();
    EXPECT_EQ(parse_ok(dumped).as_string(), raw);

    // Unicode escapes, including a surrogate pair, decode to UTF-8.
    EXPECT_EQ(parse_ok("\"\\u0041\"").as_string(), "A");
    EXPECT_EQ(parse_ok("\"\\u00e9\"").as_string(), "\xc3\xa9");
    EXPECT_EQ(parse_ok("\"\\ud83d\\ude00\"").as_string(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
    expect_reject("", "empty input");
    expect_reject("   ", "whitespace only");
    expect_reject("{", "unterminated object");
    expect_reject("[1,]", "trailing comma");
    expect_reject("{\"a\":1,}", "trailing comma in object");
    expect_reject("{\"a\" 1}", "missing colon");
    expect_reject("{a:1}", "unquoted key");
    expect_reject("'single'", "single quotes");
    expect_reject("01", "leading zero");
    expect_reject("+1", "leading plus");
    expect_reject("1.", "bare trailing dot");
    expect_reject(".5", "bare leading dot");
    expect_reject("nul", "truncated keyword");
    expect_reject("truex", "keyword with trailer");
    expect_reject("1 2", "two top-level values");
    expect_reject("\"unterminated", "unterminated string");
    expect_reject("\"bad \\q escape\"", "unknown escape");
    expect_reject("\"\\ud83d\"", "lone high surrogate");
    expect_reject(std::string("\"ctrl \x01\""), "raw control char");
    expect_reject("NaN", "NaN literal");
}

TEST(Json, RejectsDeepNestingInsteadOfOverflowing) {
    std::string deep;
    for (int i = 0; i < 200; ++i) deep += "[";
    expect_reject(deep, "200 levels of nesting");
    // ...but reasonable nesting is fine.
    std::string ok = "1";
    for (int i = 0; i < 30; ++i) ok = "[" + ok + "]";
    EXPECT_TRUE(parse_ok(ok).is_array());
}

TEST(Json, TypedAccessorsCheckTheirPreconditions) {
    const Json j(5);
    EXPECT_THROW((void)j.as_string(), precondition_error);
    EXPECT_THROW((void)j.as_array(), precondition_error);
    EXPECT_THROW((void)Json("x").as_int(), precondition_error);
    // as_int is kInt only: a double does not silently truncate.
    EXPECT_THROW((void)Json(1.5).as_int(), precondition_error);
    // uint64 above int64 max has no representation: rejected loudly.
    EXPECT_THROW(Json(~std::uint64_t{0}), precondition_error);
}

TEST(Json, NonFiniteDoublesSerializeAsNull) {
    // JSON has no NaN/Infinity; emitting them would produce unparseable
    // output. Timings are the only double producers and are finite, so
    // null is a safe representation for the impossible case.
    EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(),
              "null");
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(),
              "null");
}

}  // namespace
}  // namespace gact::util
