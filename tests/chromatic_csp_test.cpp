#include "core/chromatic_csp.h"

#include <gtest/gtest.h>

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
    problem.candidate_order = [](topo::VertexId) {
        return std::vector<topo::VertexId>{20, 10};
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
    problem.candidate_order = [](topo::VertexId) {
        return std::vector<topo::VertexId>{20, 10};
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

TEST(ChromaticCspConfig, StrayCandidatesRejectedByBothEngines) {
    // A candidate_order naming a vertex that is not in the codomain must
    // make the problem unsatisfiable in every engine — the FC engine has
    // no 0-dimensional constraints, so this is pre-filtered in the
    // domains (regression: it used to trip the internal solver-bug
    // check instead of reporting unsat).
    SimplicialComplex pt = SimplicialComplex::from_facets({Simplex{0}});
    ChromaticComplex domain(pt, {{0, 0}});
    SimplicialComplex target = SimplicialComplex::from_facets({Simplex{10}});
    ChromaticComplex codomain(target, {{10, 0}});
    // An "allowed" complex wider than the codomain, so the stray vertex
    // sneaks past the per-vertex constraint filter.
    SimplicialComplex wide =
        SimplicialComplex::from_facets({Simplex{10}, Simplex{99}});
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = [&wide](const Simplex&) -> const SimplicialComplex& {
        return wide;
    };
    problem.candidate_order = [](topo::VertexId) {
        return std::vector<topo::VertexId>{99};  // not a codomain vertex
    };
    for (const SolverConfig& config :
         {SolverConfig::naive(), SolverConfig::fast()}) {
        const auto result = solve_chromatic_map(problem, config);
        EXPECT_FALSE(result.map.has_value());
        EXPECT_TRUE(result.exhausted);
    }
}

}  // namespace
}  // namespace gact::core
