// The fast engine's incremental layers must be invisible except in
// wall time: for every scenario in the standard registry, the fast
// engine (evaluation cache, nogood learning with GC, conflict-directed
// backjumping) must produce the identical SolveReport verdict and
// witness as the naive reference engine — also with a store small
// enough that GC collects mid-search, and with the cross-solve
// SharedNogoodPool wired in. Plus unit coverage for the bounded
// NogoodStore (including the hash-collision dedup regression), the
// SharedNogoodPool, the AllowedComplexLru capacity behavior, and the
// capacity-stall regression GC removes.
#include <gtest/gtest.h>

#include "core/eval_cache.h"
#include "core/nogood_store.h"
#include "engine/engine.h"
#include "engine/scenario_registry.h"

namespace gact {
namespace {

using core::NogoodLiteral;
using core::NogoodStore;
using core::SharedNogoodPool;

// --- property: the fast engine matches the naive reference --------------

void expect_equivalent(const engine::SolveReport& reference,
                       const engine::SolveReport& candidate,
                       const std::string& label) {
    EXPECT_EQ(reference.verdict, candidate.verdict) << label;
    ASSERT_EQ(reference.witness.has_value(), candidate.witness.has_value())
        << label;
    if (reference.witness.has_value()) {
        EXPECT_EQ(reference.witness->vertex_map(),
                  candidate.witness->vertex_map())
            << label;
    }
    EXPECT_EQ(reference.witness_depth, candidate.witness_depth) << label;
    ASSERT_EQ(reference.admissibility.has_value(),
              candidate.admissibility.has_value())
        << label;
    if (reference.admissibility.has_value()) {
        EXPECT_EQ(reference.admissibility->admissible,
                  candidate.admissibility->admissible)
            << label;
    }
}

TEST(SolverCacheProperty, FastMatchesNaiveOnEveryRegistryVerdictAndWitness) {
    // Two assertions per spec: the shipped engine against the naive
    // reference, and the shipped engine with a four-entry nogood store
    // (so collections fire mid-search) against the shipped engine. A
    // collection only forgets pruning shortcuts, so both must agree bit
    // for bit.
    const engine::Engine eng;
    std::size_t evicted = 0;
    for (const auto& spec : engine::ScenarioRegistry::standard().specs()) {
        if (spec.heavy) continue;  // minutes-scale builds; covered by CI benches
        engine::Scenario scenario = spec.make();
        scenario.name = spec.name;

        scenario.options.solver = core::SolverConfig::naive();
        const engine::SolveReport naive = eng.solve(scenario);

        scenario.options.solver = core::SolverConfig::fast();
        const engine::SolveReport fast = eng.solve(scenario);
        expect_equivalent(naive, fast, spec.name + " [fast vs naive]");

        scenario.options.solver.nogood_capacity = 4;
        const engine::SolveReport collected = eng.solve(scenario);
        expect_equivalent(fast, collected, spec.name + " [capacity 4]");
        evicted += collected.counters.nogoods_evicted;
    }
    // The capacity-4 runs must really exercise GC under search.
    EXPECT_GT(evicted, 0u);
}

TEST(SolverCacheProperty, SharedPoolPreservesEveryRegistryVerdictAndWitness) {
    // Cross-solve reuse is pruning-only: a scenario solved cold, then
    // twice more against the pool its first solve populated, must report
    // the identical verdict and witness every time — and all of it must
    // match the pool-less solve.
    const engine::Engine eng;
    for (const auto& spec : engine::ScenarioRegistry::standard().specs()) {
        if (spec.heavy) continue;
        engine::Scenario scenario = spec.make();
        scenario.name = spec.name;

        const engine::SolveReport plain = eng.solve(scenario);

        scenario.options.nogood_pool =
            std::make_shared<SharedNogoodPool>();
        expect_equivalent(plain, eng.solve(scenario),
                          spec.name + " [pool cold]");
        expect_equivalent(plain, eng.solve(scenario),
                          spec.name + " [pool warm 1]");
        expect_equivalent(plain, eng.solve(scenario),
                          spec.name + " [pool warm 2]");
    }
}

// --- the capacity-stall regression (what the GC exists to fix) ----------
//
// A store that refused records once full used to freeze learning on
// whatever was derived first; a full store now collects instead.

TEST(NogoodLifecycle, GcKeepsLearningPastTheCapacity) {
    using topo::ChromaticComplex;
    using topo::Simplex;
    using topo::SimplicialComplex;

    // Every branch dies instantly: the codomain has four color-matching
    // candidates per domain vertex but not a single edge, so each root
    // assignment wipes out its neighbors' domains and records one unit
    // nogood — more distinct conflicts than a two-entry store can hold.
    const ChromaticComplex domain(
        SimplicialComplex::from_facets({Simplex{0, 1, 2}}),
        {{0, 0}, {1, 1}, {2, 2}});
    std::vector<Simplex> isolated_vertices;
    std::unordered_map<topo::VertexId, topo::Color> colors;
    for (topo::VertexId v = 10; v < 22; ++v) {
        isolated_vertices.push_back(Simplex{v});
        colors[v] = static_cast<topo::Color>((v - 10) % 3);
    }
    const ChromaticComplex edgeless(
        SimplicialComplex::from_facets(isolated_vertices), std::move(colors));
    core::ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &edgeless;
    problem.allowed =
        [&edgeless](const Simplex&) -> const SimplicialComplex& {
        return edgeless.complex();
    };

    core::SolverConfig small = core::SolverConfig::fast();
    small.nogood_capacity = 2;
    const auto result = core::solve_chromatic_map(problem, small);
    EXPECT_FALSE(result.map.has_value());
    EXPECT_TRUE(result.exhausted);
    // Recording continues past the cap...
    EXPECT_GT(result.counters.nogoods_recorded, small.nogood_capacity);
    // ...because collections made room.
    EXPECT_GT(result.counters.nogoods_evicted, 0u);
}

// --- the counter-accumulation audit (SearchCounters::add) ---------------

TEST(SearchCounters, AddAccumulatesEveryField) {
    // Each field gets a distinct value on both sides, so a field that
    // add() dropped or overwrote shows up as a wrong sum. The other
    // half of the guarantee is compile-time: the static_assert next to
    // add()'s definition (chromatic_csp.cpp) pins sizeof(SearchCounters)
    // to the field count, so a NEW counter cannot be added without
    // revisiting add() and this test.
    core::SearchCounters a;
    a.backtracks = 1;
    a.nogood_prunings = 2;
    a.nogoods_recorded = 3;
    a.nogoods_evicted = 4;
    a.backjumps = 6;
    a.pool_seeded = 7;
    a.pool_published = 8;
    a.eval_cache_hits = 11;
    a.eval_cache_misses = 12;
    core::SearchCounters b;
    b.backtracks = 100;
    b.nogood_prunings = 200;
    b.nogoods_recorded = 300;
    b.nogoods_evicted = 400;
    b.backjumps = 600;
    b.pool_seeded = 700;
    b.pool_published = 800;
    b.eval_cache_hits = 1100;
    b.eval_cache_misses = 1200;

    a.add(b);
    EXPECT_EQ(a.backtracks, 101u);
    EXPECT_EQ(a.nogood_prunings, 202u);
    EXPECT_EQ(a.nogoods_recorded, 303u);
    EXPECT_EQ(a.nogoods_evicted, 404u);
    EXPECT_EQ(a.backjumps, 606u);
    EXPECT_EQ(a.pool_seeded, 707u);
    EXPECT_EQ(a.pool_published, 808u);
    EXPECT_EQ(a.eval_cache_hits, 1111u);
    EXPECT_EQ(a.eval_cache_misses, 1212u);
}

// --- NogoodStore unit coverage ------------------------------------------

TEST(NogoodStore, RecordsAndBlocksCompletedNogoods) {
    NogoodStore store(16);
    ASSERT_TRUE(store.record({{1, 10}, {2, 20}}));
    EXPECT_EQ(store.size(), 1u);

    std::unordered_map<topo::VertexId, topo::VertexId> assignment;
    // Nothing else assigned: assigning 1 := 10 alone is not blocked.
    EXPECT_FALSE(store.blocked(1, 10, assignment));
    // With 2 := 20 in place, 1 := 10 would complete the nogood.
    assignment[2] = 20;
    EXPECT_TRUE(store.blocked(1, 10, assignment));
    // A different value for vertex 1 is fine.
    EXPECT_FALSE(store.blocked(1, 11, assignment));
    // And so is the same value under a different neighborhood.
    assignment[2] = 21;
    EXPECT_FALSE(store.blocked(1, 10, assignment));
}

TEST(NogoodStore, UnitNogoodBlocksUnconditionally) {
    NogoodStore store(4);
    ASSERT_TRUE(store.record({{7, 3}}));
    const std::unordered_map<topo::VertexId, topo::VertexId> empty;
    EXPECT_TRUE(store.blocked(7, 3, empty));
    EXPECT_FALSE(store.blocked(7, 4, empty));
}

TEST(NogoodStore, CapsTheLiveSetAtConfiguredSize) {
    NogoodStore store(3);
    EXPECT_EQ(store.capacity(), 3u);
    for (topo::VertexId i = 0; i < 10; ++i) {
        ASSERT_TRUE(store.record({{i, i}, {i + 100, i}}));
        EXPECT_LE(store.live(), 3u);
    }
    EXPECT_EQ(store.size(), 10u);
    EXPECT_EQ(store.evicted(), store.size() - store.live());
    // The latest nogood is live and keeps working at capacity.
    std::unordered_map<topo::VertexId, topo::VertexId> assignment{{109, 9}};
    EXPECT_TRUE(store.blocked(9, 9, assignment));
}

TEST(NogoodStore, DropsEmptyAndDuplicateRecords) {
    NogoodStore store(8);
    EXPECT_FALSE(store.record({}));
    EXPECT_TRUE(store.record({{2, 5}, {1, 4}}));
    // Same set in another order is the same canonical nogood.
    EXPECT_FALSE(store.record({{1, 4}, {2, 5}}));
    EXPECT_EQ(store.size(), 1u);
}

TEST(NogoodStore, ZeroCapacityDisablesRecording) {
    NogoodStore store(0);
    EXPECT_FALSE(store.record({{1, 1}}));
    EXPECT_EQ(store.size(), 0u);
}

TEST(NogoodStore, HashCollisionMustNotDropADistinctNogood) {
    // Regression: the store used to dedup by hash alone, so two distinct
    // nogoods whose literal vectors collide were treated as duplicates
    // and the second silently rejected — invisible learning loss. Force
    // every record into one bucket with a constant hasher: dedup must
    // survive on literal-vector comparison.
    NogoodStore store(16, [](const std::vector<NogoodLiteral>&) {
        return std::size_t{42};
    });
    EXPECT_TRUE(store.record({{1, 10}, {2, 20}}));
    // A genuinely different nogood, same (forced) hash: must be kept.
    EXPECT_TRUE(store.record({{3, 30}, {4, 40}}));
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.rejected_as_duplicate(), 0u);

    // Both survive and both block.
    std::unordered_map<topo::VertexId, topo::VertexId> assignment{{2, 20}};
    EXPECT_TRUE(store.blocked(1, 10, assignment));
    assignment = {{4, 40}};
    EXPECT_TRUE(store.blocked(3, 30, assignment));

    // True duplicates are still rejected, and now observably counted.
    EXPECT_FALSE(store.record({{2, 20}, {1, 10}}));
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.rejected_as_duplicate(), 1u);
}

// --- SharedNogoodPool unit coverage -------------------------------------

TEST(SharedNogoodPool, InternsStableKeysAndScopesNogoods) {
    SharedNogoodPool pool(8);
    const auto p0 = topo::BaryPoint::vertex(0);
    const auto p1 = topo::BaryPoint::vertex(1);
    const auto k0 = pool.intern(p0, 0);
    const auto k1 = pool.intern(p1, 1);
    EXPECT_NE(k0, k1);
    EXPECT_EQ(pool.intern(p0, 0), k0);  // stable across calls
    // Same position, different color: a different key.
    EXPECT_NE(pool.intern(p0, 1), k0);

    EXPECT_TRUE(pool.publish("task-a", {{k0, 10}, {k1, 11}}));
    // Duplicate (any literal order) is rejected by comparison.
    EXPECT_FALSE(pool.publish("task-a", {{k1, 11}, {k0, 10}}));
    EXPECT_EQ(pool.rejected_as_duplicate(), 1u);
    // The same literals under another scope are independent.
    EXPECT_TRUE(pool.publish("task-b", {{k0, 10}, {k1, 11}}));
    EXPECT_EQ(pool.size("task-a"), 1u);
    EXPECT_EQ(pool.size("task-b"), 1u);
    EXPECT_EQ(pool.size("task-c"), 0u);

    std::size_t visited = 0;
    pool.for_each("task-a", [&](const auto& literals) {
        ++visited;
        ASSERT_EQ(literals.size(), 2u);
        EXPECT_EQ(literals[0].var_key, k0);
        EXPECT_EQ(literals[0].value, 10u);
    });
    EXPECT_EQ(visited, 1u);
}

TEST(SharedNogoodPool, CapacityCapsEachScope) {
    SharedNogoodPool pool(2);
    const auto k = pool.intern(topo::BaryPoint::vertex(0), 0);
    EXPECT_TRUE(pool.publish("s", {{k, 1}}));
    EXPECT_TRUE(pool.publish("s", {{k, 2}}));
    EXPECT_FALSE(pool.publish("s", {{k, 3}}));  // at capacity
    EXPECT_EQ(pool.size("s"), 2u);
    EXPECT_EQ(pool.rejected_at_capacity(), 1u);
    // A duplicate at capacity still counts as the duplicate it is.
    EXPECT_FALSE(pool.publish("s", {{k, 1}}));
    EXPECT_EQ(pool.rejected_as_duplicate(), 1u);
    EXPECT_EQ(pool.rejected_at_capacity(), 1u);
    // Another scope has its own budget.
    EXPECT_TRUE(pool.publish("t", {{k, 3}}));
}

TEST(SharedNogoodPool, ZeroCapacityDisablesThePool) {
    SharedNogoodPool pool(0);
    const auto k = pool.intern(topo::BaryPoint::vertex(0), 0);
    EXPECT_FALSE(pool.publish("s", {{k, 1}}));
    EXPECT_EQ(pool.size("s"), 0u);
    EXPECT_EQ(pool.published(), 0u);
}

// --- EvalCache / AllowedComplexLru capacity behavior --------------------

TEST(AllowedComplexLru, EvictsLeastRecentlyUsed) {
    core::AllowedComplexLru lru(2);
    topo::SimplicialComplex a, b, c;
    std::size_t builds = 0;
    const auto miss_of = [&](const topo::SimplicialComplex& cx) {
        return [&builds, &cx]() {
            ++builds;
            return &cx;
        };
    };
    lru.get(topo::Simplex{0}, miss_of(a));
    lru.get(topo::Simplex{1}, miss_of(b));
    lru.get(topo::Simplex{0}, miss_of(a));  // hit; 1 becomes LRU
    lru.get(topo::Simplex{2}, miss_of(c));  // evicts 1
    EXPECT_EQ(builds, 3u);
    EXPECT_EQ(lru.size(), 2u);
    lru.get(topo::Simplex{1}, miss_of(b));  // re-miss after eviction
    EXPECT_EQ(builds, 4u);
    EXPECT_EQ(lru.hits(), 1u);
    EXPECT_EQ(lru.misses(), 4u);
}

TEST(AllowedComplexLru, ZeroCapacityAlwaysMisses) {
    core::AllowedComplexLru lru(0);
    topo::SimplicialComplex a;
    std::size_t builds = 0;
    for (int i = 0; i < 3; ++i) {
        lru.get(topo::Simplex{0}, [&]() {
            ++builds;
            return &a;
        });
    }
    EXPECT_EQ(builds, 3u);
    EXPECT_EQ(lru.size(), 0u);
}

}  // namespace
}  // namespace gact
