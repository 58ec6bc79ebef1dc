#include "core/chromatic_csp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "topology/carrier_map.h"
#include "topology/subdivision.h"

namespace gact::core {
namespace {

using topo::CarrierMap;

/// An "allowed" function that only requires images to live in the given
/// complex (no carrier constraints).
std::function<const SimplicialComplex&(const Simplex&)> allow_all(
    const ChromaticComplex& codomain) {
    return [&codomain](const Simplex&) -> const SimplicialComplex& {
        return codomain.complex();
    };
}

TEST(ChromaticCsp, IdentityOnStandardSimplex) {
    const ChromaticComplex s = topo::ChromaticComplex::standard_simplex(2);
    ChromaticMapProblem problem;
    problem.domain = &s;
    problem.codomain = &s;
    problem.allowed = allow_all(s);
    const auto result = solve_chromatic_map(problem, SolverConfig::naive());
    ASSERT_TRUE(result.map.has_value());
    // Colors force the identity.
    for (topo::VertexId v : s.vertex_ids()) {
        EXPECT_EQ(result.map->apply(v), v);
    }
    EXPECT_TRUE(result.exhausted || result.counters.backtracks == 0);
}

TEST(ChromaticCsp, RetractionOfChrFoundBySearch) {
    const ChromaticComplex s = topo::ChromaticComplex::standard_simplex(2);
    const topo::SubdividedComplex chr =
        topo::SubdividedComplex::identity(s).chromatic_subdivision();
    // Constrain images to the carrier: a chromatic carrier-preserving map
    // Chr s -> s (the canonical retraction qualifies, so search succeeds).
    CarrierMap closure;
    for (const Simplex& sigma : s.complex().simplices()) {
        closure.set(sigma, SimplicialComplex::from_facets({sigma}));
    }
    ChromaticMapProblem problem;
    problem.domain = &chr.complex();
    problem.codomain = &s;
    problem.allowed = [&closure, &chr](const Simplex& sigma)
        -> const SimplicialComplex& {
        return closure.at(chr.carrier_of(sigma));
    };
    const auto result = solve_chromatic_map(problem, SolverConfig::naive());
    ASSERT_TRUE(result.map.has_value());
    EXPECT_EQ(check_chromatic_map(problem, *result.map), "");
}

TEST(ChromaticCsp, DisconnectedTargetIsUnsatisfiable) {
    // Domain: a path of two edges with colors 0-1-0. Codomain: two
    // disjoint edges. Fixing the path's endpoints into different
    // components makes the problem unsatisfiable.
    SimplicialComplex path =
        SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{1, 2}});
    ChromaticComplex domain(path, {{0, 0}, {1, 1}, {2, 0}});
    SimplicialComplex two =
        SimplicialComplex::from_facets({Simplex{10, 11}, Simplex{20, 21}});
    ChromaticComplex codomain(two, {{10, 0}, {11, 1}, {20, 0}, {21, 1}});

    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = allow_all(codomain);
    problem.fixed = {{0, 10}, {2, 20}};
    const auto result = solve_chromatic_map(problem, SolverConfig::naive());
    EXPECT_FALSE(result.map.has_value());
    EXPECT_TRUE(result.exhausted);
    EXPECT_GT(result.counters.backtracks, 0u);
}

TEST(ChromaticCsp, SatisfiableWithConsistentFixing) {
    SimplicialComplex path =
        SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{1, 2}});
    ChromaticComplex domain(path, {{0, 0}, {1, 1}, {2, 0}});
    SimplicialComplex two =
        SimplicialComplex::from_facets({Simplex{10, 11}, Simplex{20, 21}});
    ChromaticComplex codomain(two, {{10, 0}, {11, 1}, {20, 0}, {21, 1}});

    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = allow_all(codomain);
    problem.fixed = {{0, 10}, {2, 10}};
    const auto result = solve_chromatic_map(problem, SolverConfig::naive());
    ASSERT_TRUE(result.map.has_value());
    EXPECT_EQ(result.map->apply(topo::VertexId{1}), 11u);
}

TEST(ChromaticCsp, CandidateOrderIsRespected) {
    // One free vertex with two valid images: the first candidate wins.
    SimplicialComplex pt = SimplicialComplex::from_facets({Simplex{0}});
    ChromaticComplex domain(pt, {{0, 0}});
    SimplicialComplex two_pts =
        SimplicialComplex::from_facets({Simplex{10}, Simplex{20}});
    ChromaticComplex codomain(two_pts, {{10, 0}, {20, 0}});

    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = allow_all(codomain);
    problem.order_candidates = [](topo::VertexId,
                                  std::vector<topo::VertexId>& candidates) {
        std::sort(candidates.rbegin(), candidates.rend());  // 20 before 10
    };
    const auto result = solve_chromatic_map(problem, SolverConfig::naive());
    ASSERT_TRUE(result.map.has_value());
    EXPECT_EQ(result.map->apply(topo::VertexId{0}), 20u);
}

TEST(ChromaticCsp, BacktrackBudgetReportsNonExhaustion) {
    // The unsatisfiable problem above, with a budget of 0 backtracks.
    SimplicialComplex path =
        SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{1, 2}});
    ChromaticComplex domain(path, {{0, 0}, {1, 1}, {2, 0}});
    SimplicialComplex two =
        SimplicialComplex::from_facets({Simplex{10, 11}, Simplex{20, 21}});
    ChromaticComplex codomain(two, {{10, 0}, {11, 1}, {20, 0}, {21, 1}});
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = allow_all(codomain);
    problem.fixed = {{0, 10}, {2, 20}};
    const auto result = solve_chromatic_map(problem, SolverConfig::naive(1));
    EXPECT_FALSE(result.map.has_value());
    EXPECT_FALSE(result.exhausted);
}

TEST(ChromaticCsp, CheckRejectsBadMaps) {
    const ChromaticComplex s = topo::ChromaticComplex::standard_simplex(1);
    ChromaticMapProblem problem;
    problem.domain = &s;
    problem.codomain = &s;
    problem.allowed = allow_all(s);
    // Swapping colors is not chromatic.
    SimplicialMap swap(std::unordered_map<topo::VertexId, topo::VertexId>{
        {0, 1}, {1, 0}});
    EXPECT_NE(check_chromatic_map(problem, swap), "");
    // Identity is fine.
    SimplicialMap id(std::unordered_map<topo::VertexId, topo::VertexId>{
        {0, 0}, {1, 1}});
    EXPECT_EQ(check_chromatic_map(problem, id), "");
}

TEST(ChromaticCsp, MissingInputsRejected) {
    ChromaticMapProblem problem;
    EXPECT_THROW(solve_chromatic_map(problem, SolverConfig::fast()),
                 precondition_error);
}

// --- SolverConfig engines -------------------------------------------------

/// Every problem shape exercised above, rebuilt for engine comparison.
/// The vectors/complexes referenced by the returned problems live in the
/// fixture members.
class SolverEquivalence : public ::testing::Test {
protected:
    SolverEquivalence()
        : simplex_(topo::ChromaticComplex::standard_simplex(2)),
          chr_(topo::SubdividedComplex::identity(simplex_)
                   .chromatic_subdivision()),
          path_(ChromaticComplex(
              SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{1, 2}}),
              {{0, 0}, {1, 1}, {2, 0}})),
          two_edges_(ChromaticComplex(
              SimplicialComplex::from_facets(
                  {Simplex{10, 11}, Simplex{20, 21}}),
              {{10, 0}, {11, 1}, {20, 0}, {21, 1}})) {
        for (const Simplex& sigma : simplex_.complex().simplices()) {
            closure_.set(sigma, SimplicialComplex::from_facets({sigma}));
        }
    }

    /// Both engines must agree on satisfiability, and the
    /// forward-checking/MRV engine must never backtrack more than the
    /// naive one.
    void expect_equivalent(const ChromaticMapProblem& problem,
                           std::size_t budget = 1000000) {
        const auto naive =
            solve_chromatic_map(problem, SolverConfig::naive(budget));
        const auto fast =
            solve_chromatic_map(problem, SolverConfig::fast(budget));
        ASSERT_TRUE(naive.exhausted || naive.map.has_value())
            << "naive engine hit its budget; raise it for this problem";
        ASSERT_TRUE(fast.exhausted || fast.map.has_value())
            << "fast engine hit its budget; raise it for this problem";
        EXPECT_EQ(naive.map.has_value(), fast.map.has_value());
        EXPECT_LE(fast.counters.backtracks, naive.counters.backtracks);
        if (fast.map.has_value()) {
            EXPECT_EQ(check_chromatic_map(problem, *fast.map), "");
        }
    }

    ChromaticComplex simplex_;
    topo::SubdividedComplex chr_;
    ChromaticComplex path_;
    ChromaticComplex two_edges_;
    CarrierMap closure_;
};

TEST_F(SolverEquivalence, IdentityOnStandardSimplex) {
    ChromaticMapProblem problem;
    problem.domain = &simplex_;
    problem.codomain = &simplex_;
    problem.allowed = allow_all(simplex_);
    expect_equivalent(problem);
}

TEST_F(SolverEquivalence, RetractionOfChr) {
    ChromaticMapProblem problem;
    problem.domain = &chr_.complex();
    problem.codomain = &simplex_;
    problem.allowed = [this](const Simplex& sigma)
        -> const SimplicialComplex& {
        return closure_.at(chr_.carrier_of(sigma));
    };
    expect_equivalent(problem);
}

TEST_F(SolverEquivalence, DisconnectedTargetUnsatisfiable) {
    ChromaticMapProblem problem;
    problem.domain = &path_;
    problem.codomain = &two_edges_;
    problem.allowed = allow_all(two_edges_);
    problem.fixed = {{0, 10}, {2, 20}};
    expect_equivalent(problem);
}

TEST_F(SolverEquivalence, SatisfiableWithConsistentFixing) {
    ChromaticMapProblem problem;
    problem.domain = &path_;
    problem.codomain = &two_edges_;
    problem.allowed = allow_all(two_edges_);
    problem.fixed = {{0, 10}, {2, 10}};
    expect_equivalent(problem);
}

TEST_F(SolverEquivalence, CandidateOrderProblem) {
    SimplicialComplex pt = SimplicialComplex::from_facets({Simplex{0}});
    ChromaticComplex domain(pt, {{0, 0}});
    SimplicialComplex two_pts =
        SimplicialComplex::from_facets({Simplex{10}, Simplex{20}});
    ChromaticComplex codomain(two_pts, {{10, 0}, {20, 0}});
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = allow_all(codomain);
    problem.order_candidates = [](topo::VertexId,
                                  std::vector<topo::VertexId>& candidates) {
        std::sort(candidates.rbegin(), candidates.rend());  // 20 before 10
    };
    expect_equivalent(problem);
    // The first candidate must win in both engines.
    const auto fast = solve_chromatic_map(problem, SolverConfig::fast());
    ASSERT_TRUE(fast.map.has_value());
    EXPECT_EQ(fast.map->apply(topo::VertexId{0}), 20u);
}

TEST(ChromaticCspConfig, FastEngineFoldsSquareOntoPath) {
    SimplicialComplex square = SimplicialComplex::from_facets(
        {Simplex{0, 1}, Simplex{1, 2}, Simplex{2, 3}, Simplex{0, 3}});
    ChromaticComplex domain(square, {{0, 0}, {1, 1}, {2, 0}, {3, 1}});
    // Codomain: a path 10-11-12 with colors 0,1,0; folding the square
    // onto one edge is a valid chromatic map.
    SimplicialComplex path =
        SimplicialComplex::from_facets({Simplex{10, 11}, Simplex{11, 12}});
    ChromaticComplex codomain(path, {{10, 0}, {11, 1}, {12, 0}});
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = [&codomain](const Simplex&) -> const SimplicialComplex& {
        return codomain.complex();
    };
    const auto result = solve_chromatic_map(problem, SolverConfig::fast());
    ASSERT_TRUE(result.map.has_value());
    EXPECT_EQ(check_chromatic_map(problem, *result.map), "");
}

TEST(ChromaticCspConfig, RankingSeesOnlyAllowedColorMatchingCodomainVertices) {
    // order_candidates only ever ranks codomain vertices of v's color
    // that v's own constraint complex allows: a stray vertex in a wide
    // "allowed" complex, a vertex of another color and a vertex the
    // constraint excludes never reach it, in either engine. Path 0-1-2
    // colored 0,1,0 into a codomain with color-0 vertices 10, 12, 14 and
    // color-1 vertices 11, 13; the constraint of vertex 2 excludes 14.
    SimplicialComplex path =
        SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{1, 2}});
    ChromaticComplex domain(path, {{0, 0}, {1, 1}, {2, 0}});
    SimplicialComplex target = SimplicialComplex::from_facets(
        {Simplex{10, 11}, Simplex{11, 12}, Simplex{12, 13}, Simplex{13, 14}});
    ChromaticComplex codomain(
        target, {{10, 0}, {11, 1}, {12, 0}, {13, 1}, {14, 0}});
    // Wider than the codomain: 99 is not a codomain vertex.
    SimplicialComplex wide = target;
    wide.add_simplex(Simplex{99});
    SimplicialComplex narrow = SimplicialComplex::from_facets(
        {Simplex{10, 11}, Simplex{11, 12}, Simplex{12, 13}});
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = [&](const Simplex& sigma) -> const SimplicialComplex& {
        return sigma.contains(2) ? narrow : wide;
    };
    std::map<topo::VertexId, std::vector<topo::VertexId>> seen;
    problem.order_candidates = [&seen](topo::VertexId v,
                                       std::vector<topo::VertexId>& cands) {
        seen[v] = cands;
        std::sort(cands.rbegin(), cands.rend());
    };
    for (const SolverConfig& config :
         {SolverConfig::naive(), SolverConfig::fast()}) {
        seen.clear();
        const auto result = solve_chromatic_map(problem, config);
        ASSERT_TRUE(result.map.has_value());
        EXPECT_EQ(check_chromatic_map(problem, *result.map), "");
        // Every free vertex has at least two candidates (nothing is
        // fixed), so each is ranked, and each list arrives by id.
        EXPECT_EQ(seen[0], (std::vector<topo::VertexId>{10, 12, 14}));
        EXPECT_EQ(seen[1], (std::vector<topo::VertexId>{11, 13}));
        EXPECT_EQ(seen[2], (std::vector<topo::VertexId>{10, 12}));
        // The ranking is followed: highest id first, so 0 -> 14, whose
        // only neighbor 13 forces 1 -> 13 and then 2 -> 12.
        EXPECT_EQ(result.map->apply(topo::VertexId{0}), 14u);
        EXPECT_EQ(result.map->apply(topo::VertexId{1}), 13u);
        EXPECT_EQ(result.map->apply(topo::VertexId{2}), 12u);
    }
}

}  // namespace
}  // namespace gact::core
