// Direct EvalCache lifecycle tests, pinning the PR-6 fix of the
// at-capacity freeze: a full image/mask memo used to reject every new
// entry for the rest of the solve (whatever filled it first stayed
// pinned, and all later subtrees ran uncached). It now resets the
// epoch — drops both memos and refills with the current working set —
// so memoization keeps working past the capacity. Counter-backed: the
// stats struct distinguishes misses, rejections, resets, and evictions.
#include "core/eval_cache.h"

#include <gtest/gtest.h>

#include "core/chromatic_csp.h"

namespace gact::core {
namespace {

/// A 0/1-colored path 0-1-2-...-9: plenty of distinct edges to overflow
/// a tiny memo with.
struct PathFixture {
    PathFixture() {
        std::vector<Simplex> edges;
        std::unordered_map<topo::VertexId, topo::Color> colors;
        for (topo::VertexId v = 0; v + 1 < 10; ++v) {
            edges.push_back(Simplex{v, v + 1});
            colors[v] = v % 2;
        }
        colors[9] = 1;
        codomain.emplace(SimplicialComplex::from_facets(edges), colors);
        problem.domain = &*codomain;
        problem.codomain = &*codomain;
        problem.allowed =
            [this](const Simplex&) -> const SimplicialComplex& {
            return codomain->complex();
        };
    }
    std::optional<ChromaticComplex> codomain;
    ChromaticMapProblem problem;
};

TEST(EvalCache, ImageMemoizationContinuesPastCapacity) {
    PathFixture f;
    ConstraintTable constraints(f.problem, 1);
    EvalCache cache(constraints, 4);
    const Simplex sigma{0, 1};
    // Six distinct evaluations overflow the 4-entry memo: the fifth
    // lands on a full memo and must trigger an epoch reset, not a
    // rejection.
    for (topo::VertexId i = 0; i < 6; ++i) {
        EXPECT_TRUE(cache.image_allowed(f.problem, 0, sigma, {i, i + 1}));
    }
    EXPECT_EQ(cache.stats().image_misses, 6u);
    EXPECT_EQ(cache.stats().image_rejected, 0u);
    EXPECT_EQ(cache.stats().epoch_resets, 1u);
    EXPECT_EQ(cache.stats().image_evicted, 4u);

    // The post-reset entries ARE memoized — the old freeze would have
    // re-evaluated this (and counted a rejection).
    EXPECT_TRUE(cache.image_allowed(f.problem, 0, sigma, {5, 6}));
    EXPECT_EQ(cache.stats().image_hits, 1u);

    // A pre-reset entry was evicted; probing it is a fresh admitted
    // miss, and from then on it hits again.
    EXPECT_TRUE(cache.image_allowed(f.problem, 0, sigma, {0, 1}));
    EXPECT_EQ(cache.stats().image_misses, 7u);
    EXPECT_TRUE(cache.image_allowed(f.problem, 0, sigma, {0, 1}));
    EXPECT_EQ(cache.stats().image_hits, 2u);
    EXPECT_EQ(cache.stats().image_rejected, 0u);
}

TEST(EvalCache, MaskMemoizationContinuesPastCapacity) {
    PathFixture f;
    ConstraintTable constraints(f.problem, 1);
    EvalCache cache(constraints, 2);
    const Simplex sigma{0, 1};
    // Three distinct neighborhood fingerprints against a 2-entry memo.
    for (topo::VertexId j : {1u, 3u, 5u}) {
        std::vector<topo::VertexId> image{EvalCache::kHole, j};
        const std::vector<topo::VertexId> values{j - 1, j + 1};
        const auto& mask =
            cache.allowed_mask(f.problem, 0, sigma, image, 0, values);
        // Both neighbors of j span an edge of the path.
        ASSERT_EQ(mask.size(), 1u);
        EXPECT_EQ(mask[0] & 0b11u, 0b11u);
        // The hole is restored for re-probing.
        EXPECT_EQ(image[0], EvalCache::kHole);
    }
    EXPECT_EQ(cache.stats().epoch_resets, 1u);
    EXPECT_EQ(cache.stats().image_rejected, 0u);

    // The newest fingerprint survived the reset and hits.
    std::vector<topo::VertexId> image{EvalCache::kHole, 5};
    const std::vector<topo::VertexId> values{4, 6};
    cache.allowed_mask(f.problem, 0, sigma, image, 0, values);
    EXPECT_EQ(cache.stats().image_hits, 1u);
}

TEST(EvalCache, ZeroCapacityDisablesTheImageMemosButStaysCorrect) {
    PathFixture f;
    ConstraintTable constraints(f.problem, 1);
    EvalCache cache(constraints, 0);
    const Simplex sigma{0, 1};
    for (int round = 0; round < 2; ++round) {
        EXPECT_TRUE(cache.image_allowed(f.problem, 0, sigma, {0, 1}));
        EXPECT_FALSE(cache.image_allowed(f.problem, 0, sigma, {0, 2}));
        std::vector<topo::VertexId> image{EvalCache::kHole, 1};
        const std::vector<topo::VertexId> values{0, 2};
        const auto& mask =
            cache.allowed_mask(f.problem, 0, sigma, image, 0, values);
        ASSERT_EQ(mask.size(), 1u);
        EXPECT_EQ(mask[0], 0b11u);  // 0-1 and 1-2 are both edges
    }
    EXPECT_EQ(cache.stats().image_hits, 0u);
    EXPECT_EQ(cache.stats().epoch_resets, 0u);
    EXPECT_GT(cache.stats().image_rejected, 0u);
}

}  // namespace
}  // namespace gact::core
