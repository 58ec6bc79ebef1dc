// gact::util command-line parsing: the strict number parsers at their
// boundaries, and the argument cursor every `gact` subcommand walks argv
// with (its "needs a value", bad-value and unknown-argument paths).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/cli.h"

namespace gact::util {
namespace {

TEST(ParseCount, AcceptsPlainDecimalsUpToMax) {
    std::uint32_t v = 7;
    EXPECT_TRUE(parse_count("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parse_count("4294967295", v));
    EXPECT_EQ(v, 4294967295u);
    EXPECT_TRUE(parse_count("007", v));
    EXPECT_EQ(v, 7u);

    std::uint64_t w = 0;
    EXPECT_TRUE(parse_count("18446744073709551615", w));
    EXPECT_EQ(w, UINT64_MAX);

    unsigned workers = 0;
    EXPECT_TRUE(parse_count("1024", workers, 1u, 1024u));
    EXPECT_EQ(workers, 1024u);
    EXPECT_TRUE(parse_count("1", workers, 1u, 1024u));
    EXPECT_EQ(workers, 1u);
}

TEST(ParseCount, RejectsEverythingElseAndLeavesTheOutputAlone) {
    const std::vector<const char*> bad = {
        "",   "4294967296", "99999999999999999999", "-1", "+1", " 1",
        "1 ", "5x",         "0x10",                 "1.", ".", "1e3",
        "inf"};
    for (const char* text : bad) {
        std::uint32_t v = 7;
        EXPECT_FALSE(parse_count(text, v)) << "'" << text << "'";
        EXPECT_EQ(v, 7u) << "'" << text << "'";
    }
    std::uint32_t v = 7;
    EXPECT_FALSE(parse_count(nullptr, v));

    std::uint64_t w = 7;
    EXPECT_FALSE(parse_count("18446744073709551616", w));
    EXPECT_EQ(w, 7u);

    // Range bounds: max + 1 and min - 1 are out.
    unsigned workers = 7;
    EXPECT_FALSE(parse_count("1025", workers, 1u, 1024u));
    EXPECT_FALSE(parse_count("0", workers, 1u, 1024u));
    EXPECT_EQ(workers, 7u);
    std::uint16_t port = 7;
    EXPECT_FALSE(parse_count("65536", port));
    EXPECT_EQ(port, 7u);
}

TEST(ParseNonNegativeDecimal, Boundaries) {
    double v = -1.0;
    EXPECT_TRUE(parse_non_negative_decimal("0", v));
    EXPECT_EQ(v, 0.0);
    EXPECT_TRUE(parse_non_negative_decimal("0.5", v));
    EXPECT_EQ(v, 0.5);
    EXPECT_TRUE(parse_non_negative_decimal(".5", v));
    EXPECT_EQ(v, 0.5);
    EXPECT_TRUE(parse_non_negative_decimal("1.", v));
    EXPECT_EQ(v, 1.0);

    const std::vector<const char*> bad = {
        "", ".", "1.2.3", "-5", "+5", "inf", "nan", "1e3", "0x10", "2x",
        " 1"};
    for (const char* text : bad) {
        double w = -1.0;
        EXPECT_FALSE(parse_non_negative_decimal(text, w)) << "'" << text
                                                           << "'";
        EXPECT_EQ(w, -1.0) << "'" << text << "'";
    }
    double w = -1.0;
    EXPECT_FALSE(parse_non_negative_decimal(nullptr, w));
    // 400 digits overflow a double to infinity: rejected, not inf.
    const std::string huge(400, '9');
    EXPECT_FALSE(parse_non_negative_decimal(huge.c_str(), w));
    EXPECT_EQ(w, -1.0);
}

/// argv for a cursor; argv[0] is the program, argv[1] the subcommand.
class Argv {
public:
    explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
        strings_.insert(strings_.begin(), {"gact", "cmd"});
        for (std::string& s : strings_) pointers_.push_back(s.data());
    }
    ArgCursor cursor() {
        return ArgCursor(static_cast<int>(pointers_.size()),
                         pointers_.data(), 2);
    }

private:
    std::vector<std::string> strings_;
    std::vector<char*> pointers_;
};

/// The UsageError message `fn` throws, or "" if it throws none.
template <typename Fn>
std::string usage_error_of(Fn fn) {
    try {
        fn();
    } catch (const UsageError& e) {
        return e.what();
    }
    return "";
}

TEST(ArgCursor, ConsumesFlagsValuesAndOperandsInOrder) {
    Argv argv({"--json", "--threads", "4", "--pool-file", "p.pool",
               "--seconds", "0.5", "lt-2-1-res1"});
    ArgCursor args = argv.cursor();
    bool json = false;
    unsigned threads = 2;
    std::string pool;
    double seconds = 0.0;

    EXPECT_FALSE(args.flag("--no-pool", json));
    EXPECT_FALSE(args.value("--pool-file", pool));
    EXPECT_TRUE(args.flag("--json", json));
    EXPECT_TRUE(json);
    EXPECT_FALSE(args.flag("--json", json));  // the cursor moved on
    EXPECT_TRUE(args.count("--threads", threads, 1));
    EXPECT_EQ(threads, 4u);
    EXPECT_TRUE(args.value("--pool-file", pool));
    EXPECT_EQ(pool, "p.pool");
    EXPECT_TRUE(args.decimal("--seconds", seconds));
    EXPECT_EQ(seconds, 0.5);
    EXPECT_FALSE(args.done());
    EXPECT_EQ(std::string(args.operand()), "lt-2-1-res1");
    EXPECT_TRUE(args.done());
    // At the end every accessor declines.
    EXPECT_FALSE(args.flag("--json", json));
    EXPECT_FALSE(args.count("--threads", threads));
}

TEST(ArgCursor, AValueTakingFlagGivenLastNeedsAValue) {
    for (const char* flag : {"--pool-file", "--threads", "--seconds"}) {
        Argv argv({flag});
        ArgCursor args = argv.cursor();
        std::string text;
        unsigned n = 0;
        double d = 0.0;
        const std::string want = std::string(flag) + " needs a value";
        EXPECT_EQ(usage_error_of([&] { args.value(flag, text); }), want);
        EXPECT_EQ(usage_error_of([&] { args.count(flag, n); }), want);
        EXPECT_EQ(usage_error_of([&] { args.decimal(flag, d); }), want);
    }
}

TEST(ArgCursor, BadNumbersNameTheFlagTheValueAndTheRange) {
    Argv argv({"--threads", "0"});
    ArgCursor args = argv.cursor();
    unsigned threads = 2;
    EXPECT_EQ(
        usage_error_of([&] { args.count("--threads", threads, 1, 1024); }),
        "bad --threads '0' (want 1..1024)");
    EXPECT_EQ(threads, 2u);

    Argv port_argv({"--port", "65536"});
    ArgCursor port_args = port_argv.cursor();
    std::uint16_t port = 7461;
    EXPECT_EQ(usage_error_of([&] { port_args.count("--port", port); }),
              "bad --port '65536' (want 0..65535)");

    Argv seconds_argv({"--seconds", "inf"});
    ArgCursor seconds_args = seconds_argv.cursor();
    double seconds = 0.0;
    EXPECT_EQ(
        usage_error_of([&] { seconds_args.decimal("--seconds", seconds); }),
        "bad --seconds 'inf' (want a non-negative decimal number)");
}

TEST(ArgCursor, UnrecognisedArgumentsAreUnknown) {
    Argv argv({"--no-such-flag"});
    ArgCursor args = argv.cursor();
    EXPECT_EQ(usage_error_of([&] { args.operand(); }),
              "unknown argument '--no-such-flag'");
    EXPECT_EQ(usage_error_of([&] { args.unknown(); }),
              "unknown argument '--no-such-flag'");

    Argv stray({"stray"});
    ArgCursor stray_args = stray.cursor();
    EXPECT_EQ(usage_error_of([&] { stray_args.unknown(); }),
              "unknown argument 'stray'");
}

}  // namespace
}  // namespace gact::util
