// SharedNogoodPool persistence (PR 5): the geometry-keyed scopes
// serialize to a versioned text file, a fresh pool (a fresh *process*)
// loads them back bit-exactly, file-local key ids re-intern against
// whatever the receiving pool already holds, and every corruption mode
// is rejected with a diagnostic while leaving the pool untouched. On
// top of the unit layer, the round trip through the engine: a pool
// warm-started with load_if_present and saved after a solve lets a
// second, fresh pool re-solve to the identical witness at 0 backtracks;
// a missing file is a clean cold start, and a corrupt file or a
// directory returns a diagnostic and leaves the pool untouched.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "core/nogood_store.h"
#include "engine/engine.h"
#include "engine/scenario_registry.h"

namespace gact {
namespace {

using core::SharedNogoodPool;

/// A unique temp path per test; removed on destruction.
struct TempFile {
    std::string path;
    explicit TempFile(const std::string& tag) {
        path = std::string(::testing::TempDir()) + "gact-pool-" + tag + "-" +
               std::to_string(::getpid()) + ".txt";
        std::remove(path.c_str());
    }
    ~TempFile() { std::remove(path.c_str()); }
};

topo::BaryPoint midpoint01() {
    return topo::BaryPoint(
        {{0, Rational(1, 2)}, {1, Rational(1, 2)}});
}

topo::BaryPoint third012() {
    return topo::BaryPoint({{0, Rational(1, 3)},
                            {1, Rational(1, 3)},
                            {2, Rational(1, 3)}});
}

TEST(SharedNogoodPoolPersistence, SaveLoadRoundTripsScopesKeysAndLiterals) {
    TempFile file("roundtrip");
    SharedNogoodPool pool;
    const auto k0 = pool.intern(topo::BaryPoint::vertex(0), 0);
    const auto k1 = pool.intern(midpoint01(), 1);
    const auto k2 = pool.intern(third012(), 2);
    ASSERT_TRUE(pool.publish("task-a|depth=1", {{k0, 10}, {k1, 11}}));
    ASSERT_TRUE(pool.publish("task-a|depth=1", {{k2, 12}}));
    ASSERT_TRUE(pool.publish("task-b with spaces", {{k1, 20}}));
    ASSERT_EQ(pool.save(file.path), "");

    SharedNogoodPool loaded;
    ASSERT_EQ(loaded.load(file.path), "");
    EXPECT_EQ(loaded.size("task-a|depth=1"), 2u);
    EXPECT_EQ(loaded.size("task-b with spaces"), 1u);

    // The loaded pool interns the same geometry to ITS OWN ids; what
    // must round-trip is the (position, color) -> value association.
    const auto l0 = loaded.intern(topo::BaryPoint::vertex(0), 0);
    const auto l1 = loaded.intern(midpoint01(), 1);
    const auto l2 = loaded.intern(third012(), 2);
    std::size_t seen = 0;
    loaded.for_each("task-a|depth=1", [&](const auto& literals) {
        ++seen;
        if (literals.size() == 2) {
            EXPECT_EQ(literals[0].var_key, std::min(l0, l1));
            EXPECT_EQ(literals[1].var_key, std::max(l0, l1));
        } else {
            ASSERT_EQ(literals.size(), 1u);
            EXPECT_EQ(literals[0].var_key, l2);
            EXPECT_EQ(literals[0].value, 12u);
        }
    });
    EXPECT_EQ(seen, 2u);

    // Exact geometry survived: a *different* rational point must not
    // collide with any loaded key.
    const auto fresh = loaded.intern(
        topo::BaryPoint({{0, Rational(1, 4)}, {1, Rational(3, 4)}}), 1);
    EXPECT_NE(fresh, l0);
    EXPECT_NE(fresh, l1);
    EXPECT_NE(fresh, l2);
}

TEST(SharedNogoodPoolPersistence, LoadRemapsFileKeysAgainstExistingInterns) {
    TempFile file("remap");
    SharedNogoodPool source;
    const auto sk = source.intern(midpoint01(), 1);
    ASSERT_TRUE(source.publish("s", {{sk, 42}}));
    ASSERT_EQ(source.save(file.path), "");

    // The destination pool already interned OTHER keys, so the file's
    // id 0 must not be taken literally: the literal must come back
    // under the destination's id for the same geometry.
    SharedNogoodPool dest;
    dest.intern(topo::BaryPoint::vertex(5), 0);
    dest.intern(topo::BaryPoint::vertex(6), 1);
    ASSERT_EQ(dest.load(file.path), "");
    const auto dk = dest.intern(midpoint01(), 1);
    EXPECT_NE(dk, sk);  // ids diverged between the pools
    std::size_t seen = 0;
    dest.for_each("s", [&](const auto& literals) {
        ++seen;
        ASSERT_EQ(literals.size(), 1u);
        EXPECT_EQ(literals[0].var_key, dk);
        EXPECT_EQ(literals[0].value, 42u);
    });
    EXPECT_EQ(seen, 1u);

    // Loading the same file again is a no-op thanks to literal-level
    // dedup.
    ASSERT_EQ(dest.load(file.path), "");
    EXPECT_EQ(dest.size("s"), 1u);
    EXPECT_EQ(dest.rejected_as_duplicate(), 1u);
}

TEST(SharedNogoodPoolPersistence, SaveMergesWhatAnotherWriterPersisted) {
    TempFile file("two-writer");
    // Writer A persists one nogood...
    SharedNogoodPool a;
    const auto ak = a.intern(midpoint01(), 1);
    ASSERT_TRUE(a.publish("shared", {{ak, 1}}));
    ASSERT_EQ(a.save(file.path), "");

    // ...and writer B — a pool that never loaded the file — learns a
    // different one and saves over the same path. Merge-on-save must
    // union the two, not last-writer-clobber A's learning.
    SharedNogoodPool b;
    const auto bk = b.intern(third012(), 2);
    ASSERT_TRUE(b.publish("shared", {{bk, 2}}));
    ASSERT_EQ(b.save(file.path), "");
    EXPECT_EQ(b.size("shared"), 2u);  // B absorbed A's entry while saving

    SharedNogoodPool readback;
    ASSERT_EQ(readback.load(file.path), "");
    EXPECT_EQ(readback.size("shared"), 2u);

    // A third save with nothing new re-imports the file and dedups
    // every entry: the union is stable, not doubling.
    ASSERT_EQ(b.save(file.path), "");
    SharedNogoodPool again;
    ASSERT_EQ(again.load(file.path), "");
    EXPECT_EQ(again.size("shared"), 2u);
}

TEST(SharedNogoodPoolPersistence, RejectsCorruptionWithoutTouchingThePool) {
    TempFile file("corrupt");
    SharedNogoodPool good;
    const auto k = good.intern(topo::BaryPoint::vertex(0), 0);
    ASSERT_TRUE(good.publish("s", {{k, 1}}));
    ASSERT_EQ(good.save(file.path), "");

    const auto expect_rejected = [&](const std::string& contents,
                                     const std::string& label) {
        std::ofstream out(file.path, std::ios::trunc);
        out << contents;
        out.close();
        SharedNogoodPool pool;
        const auto pk = pool.intern(midpoint01(), 1);
        ASSERT_TRUE(pool.publish("pre", {{pk, 9}}));
        const std::string err = pool.load(file.path);
        EXPECT_NE(err, "") << label;
        // All-or-nothing: the pool is exactly as before the load.
        EXPECT_EQ(pool.size("pre"), 1u) << label;
        EXPECT_EQ(pool.size("s"), 0u) << label;
        EXPECT_EQ(pool.published(), 1u) << label;
    };

    expect_rejected("", "empty file");
    expect_rejected("gact-nogood-pool v999\nkeys 0\nscopes 0\nend\n",
                    "version mismatch");
    expect_rejected("not a pool file at all\n", "garbage header");
    expect_rejected(
        "gact-nogood-pool v1\nkeys 1\nkey 0 0 1 0:1/0\nscopes 0\nend\n",
        "zero denominator");
    expect_rejected(
        "gact-nogood-pool v1\nkeys 1\nkey 0 0 1 0:1/2\nscopes 0\nend\n",
        "coordinates not summing to 1");
    expect_rejected(
        "gact-nogood-pool v1\nkeys 0\nscopes 1\nscope 1 s\nn 1 5:1\nend\n",
        "literal referencing an unknown key");
    expect_rejected("gact-nogood-pool v1\nkeys 0\nscopes 1\nscope 1 s\n",
                    "truncated before the nogoods");
    // Numeric strictness: a one-character corruption must be a
    // rejection, never a silently different nogood (loading "0:1x" as
    // value 1 would be unsound pruning against the wrong assignment).
    expect_rejected(
        "gact-nogood-pool v1\nkeys 1\nkey 0 0 1 0:1/1\nscopes 1\n"
        "scope 1 s\nn 1 0:1x\nend\n",
        "non-numeric garbage inside a literal");
    // An undercounting 'n <count>' must not silently drop literals
    // (fewer literals = a strictly stronger, unsound nogood).
    expect_rejected(
        "gact-nogood-pool v1\nkeys 1\nkey 0 0 1 0:1/1\nscopes 1\n"
        "scope 1 s\nn 1 0:1 0:2\nend\n",
        "literals beyond the declared count");

    // A valid save is truncated mid-file (no 'end' trailer): rejected.
    {
        std::ifstream in(file.path);
        // file.path currently holds the truncated content from above;
        // rewrite it from the good pool, then chop the trailer.
        in.close();
        ASSERT_EQ(good.save(file.path), "");
        std::ifstream full(file.path);
        std::string contents((std::istreambuf_iterator<char>(full)),
                             std::istreambuf_iterator<char>());
        full.close();
        const auto end_pos = contents.rfind("end\n");
        ASSERT_NE(end_pos, std::string::npos);
        expect_rejected(contents.substr(0, end_pos), "missing trailer");
    }

    // Nonexistent path: an error for load() (load_if_present treats it
    // as the cold start; see PoolFileEngineRoundTrip below).
    SharedNogoodPool pool;
    EXPECT_NE(pool.load(file.path + ".does-not-exist"), "");
    // Unwritable path: save reports instead of throwing.
    EXPECT_NE(good.save("/nonexistent-dir/pool.txt"), "");
}

// --- the engine round trip: a simulated process boundary ----------------

engine::Scenario chr2_scenario() {
    auto scenario =
        engine::ScenarioRegistry::standard().find("chr2-2p-wf");
    // The registry scenario solves at depth 2 with a nonzero cold
    // backtrack count — exactly what makes "warm re-solve at 0
    // backtracks" a meaningful assertion.
    return *scenario;
}

TEST(PoolFileEngineRoundTrip, SecondProcessWarmStartsToZeroBacktracks) {
    TempFile file("engine");
    const engine::Engine eng;

    // "Process 1": a fresh pool, the file absent, solve, save.
    engine::Scenario cold = chr2_scenario();
    cold.options.nogood_pool = std::make_shared<SharedNogoodPool>();
    ASSERT_EQ(cold.options.nogood_pool->load_if_present(file.path), "");
    const engine::SolveReport cold_report = eng.solve(cold);
    ASSERT_EQ(cold_report.verdict, engine::Verdict::kSolvable);
    ASSERT_TRUE(cold_report.witness.has_value());
    EXPECT_GT(cold_report.total_backtracks, 0u);
    EXPECT_GT(cold_report.counters.pool_published, 0u);
    ASSERT_EQ(cold.options.nogood_pool->save(file.path), "");

    // "Process 2": another fresh pool with no shared state beyond the
    // file on disk.
    engine::Scenario warm = chr2_scenario();
    warm.options.nogood_pool = std::make_shared<SharedNogoodPool>();
    ASSERT_EQ(warm.options.nogood_pool->load_if_present(file.path), "");
    const engine::SolveReport warm_report = eng.solve(warm);
    ASSERT_EQ(warm_report.verdict, engine::Verdict::kSolvable);
    ASSERT_TRUE(warm_report.witness.has_value());
    EXPECT_EQ(warm_report.witness->vertex_map(),
              cold_report.witness->vertex_map());
    EXPECT_EQ(warm_report.witness_depth, cold_report.witness_depth);
    EXPECT_EQ(warm_report.total_backtracks, 0u)
        << "pool-warm re-solve must replay the learned conflicts: "
        << warm_report.summary();
    EXPECT_GT(warm_report.counters.pool_seeded, 0u);
}

TEST(PoolFileEngineRoundTrip, CorruptPoolFileIsReportedAndLeavesThePool) {
    TempFile file("engine-corrupt");
    {
        std::ofstream out(file.path);
        out << "gact-nogood-pool v999\ntotal garbage\n";
    }
    auto pool = std::make_shared<SharedNogoodPool>();
    const auto k = pool->intern(midpoint01(), 1);
    ASSERT_TRUE(pool->publish("pre", {{k, 9}}));
    EXPECT_NE(pool->load_if_present(file.path), "");
    EXPECT_EQ(pool->published(), 1u);
    EXPECT_EQ(pool->size("pre"), 1u);

    // The cold pool still serves the solve, and saving it replaces the
    // garbage with a valid pool file.
    engine::Scenario scenario = chr2_scenario();
    scenario.options.nogood_pool = pool;
    EXPECT_EQ(engine::Engine().solve(scenario).verdict,
              engine::Verdict::kSolvable);
    ASSERT_EQ(pool->save(file.path), "");
    SharedNogoodPool reloaded;
    EXPECT_EQ(reloaded.load_if_present(file.path), "");
    EXPECT_GT(reloaded.published(), 0u);
}

TEST(PoolFileEngineRoundTrip, DirectoryPathIsADiagnosticNotAColdStart) {
    // A path that EXISTS but cannot be read as a pool (here: a
    // directory; the permissions case behaves the same) must not be
    // mistaken for the silent first-run cold start: the warm start the
    // operator configured is not happening.
    SharedNogoodPool pool;
    EXPECT_NE(pool.load_if_present(::testing::TempDir()), "");
    EXPECT_EQ(pool.published(), 0u);
}

TEST(SharedNogoodPoolPersistence, SnapshotUnderConcurrentPublishes) {
    // The solve server snapshots its resident pool on a timer while
    // worker threads keep publishing into it. Every snapshot must be a
    // complete, loadable file (a consistent cut — no torn reads), and
    // publishes must never wait on the snapshot's disk I/O. This
    // hammers save() from one thread while another publishes
    // continuously, then loads every byte the saver produced.
    TempFile file("snapshot-race");
    SharedNogoodPool pool;
    constexpr std::size_t kPublishes = 400;
    constexpr std::size_t kSaves = 25;

    std::thread publisher([&] {
        for (std::size_t i = 0; i < kPublishes; ++i) {
            const auto k = pool.intern(
                topo::BaryPoint(
                    {{0, Rational(1, static_cast<long>(i) + 2)},
                     {1, Rational(static_cast<long>(i) + 1,
                                  static_cast<long>(i) + 2)}}),
                static_cast<topo::Color>(i % 3));
            pool.publish("race-scope",
                         {{k, static_cast<topo::VertexId>(i)}});
        }
    });
    for (std::size_t s = 0; s < kSaves; ++s) {
        ASSERT_EQ(pool.save(file.path), "");
        // Every snapshot parses whole: a torn write would be rejected
        // by load()'s all-or-nothing validation.
        SharedNogoodPool check;
        ASSERT_EQ(check.load(file.path), "") << "snapshot " << s;
    }
    publisher.join();

    // The final save captures everything published.
    ASSERT_EQ(pool.save(file.path), "");
    SharedNogoodPool final_check;
    ASSERT_EQ(final_check.load(file.path), "");
    EXPECT_EQ(final_check.size("race-scope"), kPublishes);
}

TEST(PoolFileEngineRoundTrip, MissingFileIsACleanColdStart) {
    TempFile file("engine-missing");
    auto pool = std::make_shared<SharedNogoodPool>();
    EXPECT_EQ(pool->load_if_present(file.path), "");
    EXPECT_EQ(pool->published(), 0u);

    engine::Scenario scenario = chr2_scenario();
    scenario.options.nogood_pool = pool;
    const engine::SolveReport report = engine::Engine().solve(scenario);
    EXPECT_EQ(report.verdict, engine::Verdict::kSolvable);
    EXPECT_TRUE(report.warnings.empty()) << report.summary();
    // And the save seeds the file for the next process.
    ASSERT_EQ(pool->save(file.path), "");
    EXPECT_TRUE(std::ifstream(file.path).good());
}

}  // namespace
}  // namespace gact
