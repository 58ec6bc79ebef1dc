#include "iis/projection.h"

#include <gtest/gtest.h>

#include <map>

#include "engine/scenario_registry.h"
#include "iis/run_enumeration.h"
#include "runtime/schedule.h"
#include "topology/geometry.h"

namespace gact::iis {
namespace {

OrderedPartition seq(std::initializer_list<ProcessId> order) {
    return OrderedPartition::sequential(std::vector<ProcessId>(order));
}

OrderedPartition conc(std::initializer_list<ProcessId> procs) {
    return OrderedPartition::concurrent(ProcessSet::of(procs));
}

TEST(SubdivisionChain, LevelsBuildLazily) {
    SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(2));
    EXPECT_EQ(chain.built(), 1u);
    EXPECT_EQ(chain.level(2).depth(), 2);
    EXPECT_EQ(chain.built(), 3u);
    EXPECT_EQ(chain.level(1).complex().facets().size(), 13u);
}

TEST(Projection, ViewVertexColorsMatchProcess) {
    SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(2));
    const iis::Run r = iis::Run::forever(3, seq({2, 0, 1}));
    const topo::Simplex s{0, 1, 2};
    for (ProcessId p = 0; p < 3; ++p) {
        for (std::size_t k = 0; k <= 2; ++k) {
            const topo::VertexId v = view_vertex(chain, r, p, k, s);
            EXPECT_EQ(chain.level(k).complex().color(v), p);
        }
    }
}

TEST(Projection, SoloRunStaysAtCorner) {
    SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(2));
    const iis::Run r = iis::Run::forever(3, conc({0}));
    const topo::Simplex s{0, 1, 2};
    for (std::size_t k = 0; k <= 3; ++k) {
        const topo::VertexId v = view_vertex(chain, r, 0, k, s);
        EXPECT_EQ(chain.level(k).position(v), topo::BaryPoint::vertex(0));
    }
}

TEST(Projection, ConcurrentRunConvergesToBarycenter) {
    SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(1));
    const iis::Run r = iis::Run::forever(2, conc({0, 1}));
    const topo::Simplex s{0, 1};
    // After one fully concurrent round the two views sit at the middle
    // edge of Chr s: positions 1/3-2/3 and 2/3-1/3.
    const topo::VertexId v0 = view_vertex(chain, r, 0, 1, s);
    EXPECT_EQ(chain.level(1).position(v0).coord(1), Rational(2, 3));
    const topo::VertexId v1 = view_vertex(chain, r, 1, 1, s);
    EXPECT_EQ(chain.level(1).position(v1).coord(0), Rational(2, 3));
}

TEST(Projection, RunSimplexIsInChrK) {
    SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(2));
    const topo::Simplex s{0, 1, 2};
    const std::vector<iis::Run> runs = enumerate_full_participation_runs(3, 1);
    // A sample of the enumeration to keep runtime low.
    for (std::size_t i = 0; i < runs.size(); i += 7) {
        for (std::size_t k = 0; k <= 2; ++k) {
            EXPECT_NO_THROW(run_simplex(chain, runs[i], k, s))
                << runs[i].to_string();
        }
    }
}

TEST(Projection, SimplexChainIsNested) {
    // |sigma_{k+1}| ⊆ |sigma_k| (paper, Section 5).
    SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(2));
    const topo::Simplex s{0, 1, 2};
    const iis::Run r(3, {seq({0, 1, 2})}, {conc({0, 1, 2})});
    for (std::size_t k = 0; k + 1 <= 3; ++k) {
        const topo::Simplex outer = run_simplex(chain, r, k, s);
        const topo::Simplex inner = run_simplex(chain, r, k + 1, s);
        const auto outer_pos = chain.level(k).positions_of(outer);
        for (const topo::BaryPoint& p :
             chain.level(k + 1).positions_of(inner)) {
            EXPECT_TRUE(topo::point_in_simplex(p, outer_pos));
        }
    }
}

TEST(Projection, DiametersShrink) {
    SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(2));
    const topo::Simplex s{0, 1, 2};
    const iis::Run r = iis::Run::forever(3, conc({0, 1, 2}));
    Rational prev(2);  // diameter of |s| is 2 in l1
    for (std::size_t k = 1; k <= 3; ++k) {
        const topo::Simplex sk = run_simplex(chain, r, k, s);
        const Rational d = simplex_diameter(chain.level(k), sk);
        EXPECT_LT(d, prev);
        prev = d;
    }
}

TEST(Projection, DroppedProcessShrinksRunSimplex) {
    SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(2));
    const topo::Simplex s{0, 1, 2};
    const iis::Run r(3, {conc({0, 1, 2})}, {conc({0, 1})});
    EXPECT_EQ(run_simplex(chain, r, 1, s).dimension(), 2);
    EXPECT_EQ(run_simplex(chain, r, 2, s).dimension(), 1);
}

TEST(Projection, ViewVertexRequiresParticipation) {
    SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(2));
    const topo::Simplex s{0, 1, 2};
    const iis::Run r(3, {conc({0, 1, 2})}, {conc({0})});
    EXPECT_THROW(view_vertex(chain, r, 1, 2, s), precondition_error);
}

TEST(Projection, InputFacetMustExist) {
    SubdivisionChain chain(topo::ChromaticComplex::standard_simplex(1));
    const iis::Run r = iis::Run::forever(2, conc({0, 1}));
    EXPECT_THROW(view_vertex(chain, r, 0, 0, topo::Simplex{0, 7}),
                 precondition_error);
}

// Lemma 5.1 in executable form: from any sequence of runs one can extract
// a subsequence converging in the run metric. We realize the diagonal
// argument on a pseudo-random family.
TEST(Projection, CompactnessDiagonalArgument) {
    std::mt19937 rng(3);
    std::vector<iis::Run> seq_runs;
    for (int i = 0; i < 200; ++i) {
        seq_runs.push_back(random_stabilized_run(rng, 3, 2));
    }
    // Group by agreeing prefixes of growing length; at each depth keep the
    // largest class.
    std::vector<iis::Run> current = seq_runs;
    for (std::size_t depth = 0; depth < 4 && current.size() > 1; ++depth) {
        std::vector<iis::Run> best;
        for (const iis::Run& candidate : current) {
            std::vector<iis::Run> cls;
            for (const iis::Run& r : current) {
                if (r.round(depth) == candidate.round(depth)) {
                    cls.push_back(r);
                }
            }
            if (cls.size() > best.size()) best = cls;
        }
        // Pigeonhole: the largest class keeps at least 1/25 of the runs
        // (25 = number of (support, partition) choices for 3 processes).
        EXPECT_GE(best.size() * 25, current.size());
        current = best;
        // All survivors now agree on rounds 0..depth: pairwise distance
        // at most 1/(depth+2).
        for (const iis::Run& a : current) {
            EXPECT_LE(a.distance_to(current.front()),
                      Rational(1, static_cast<std::int64_t>(depth) + 2));
        }
    }
}

/// The std::map-based affine combination that BaryPoint::combination's
/// merge replaced, kept as the oracle: accumulate every point's terms per
/// vertex, in point order.
topo::BaryPoint map_combination(const std::vector<topo::BaryPoint>& points,
                                const std::vector<Rational>& weights) {
    std::map<topo::VertexId, Rational> acc;
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (const auto& [v, w] : points[i].coords()) acc[v] += weights[i] * w;
    }
    std::vector<std::pair<topo::VertexId, Rational>> coords;
    for (const auto& [v, w] : acc) {
        if (!w.is_zero()) coords.emplace_back(v, w);
    }
    return topo::BaryPoint(std::move(coords));
}

/// Row m of view_positions' table the way it was computed before rows
/// reused their buffers: per process, copies of its snapshot's points.
std::vector<std::optional<topo::BaryPoint>> map_next_row(
    const iis::Run& run, std::size_t m,
    const std::vector<std::optional<topo::BaryPoint>>& previous) {
    const OrderedPartition& round = run.round(m - 1);
    std::vector<std::optional<topo::BaryPoint>> row(previous.size());
    for (ProcessId p : round.support().members()) {
        const ProcessSet snap = round.snapshot_of(p);
        const auto c = static_cast<std::int64_t>(snap.size());
        std::vector<topo::BaryPoint> pts;
        std::vector<Rational> weights;
        for (ProcessId q : snap.members()) {
            pts.push_back(*previous[q]);
            weights.emplace_back(q == p ? 1 : 2, 2 * c - 1);
        }
        row[p] = map_combination(pts, weights);
    }
    return row;
}

TEST(Projection, PositionRowsEqualTheMapBasedOracleOnDrawnRuns) {
    // Over the runs the fuzzer draws for three seeds on the quick
    // registry's n = 2 and n = 3 tasks, every view_positions row — until
    // the exact arithmetic overflows, which both sides must then do at
    // the same round — comes out coordinate for coordinate identical.
    constexpr std::size_t kDraws = 40;
    constexpr std::size_t kRoundsPastPrefix = 16;
    std::size_t rows = 0;
    for (const engine::Scenario& scenario :
         engine::ScenarioRegistry::standard().quick()) {
        const std::uint32_t n = scenario.task.num_processes;
        if (n != 2 && n != 3) continue;
        const runtime::ScheduleGenerator gen(n, scenario.model, 3);
        for (std::uint64_t seed : {1, 2, 3}) {
            for (std::size_t i = 0; i < kDraws; ++i) {
                runtime::SplitMix64 rng(runtime::mix_seed(seed, i));
                const runtime::Schedule s = gen.next(rng);
                const iis::Run run = s.to_run();
                std::vector<std::optional<topo::BaryPoint>> row(n);
                for (ProcessId p = 0; p < n; ++p) {
                    row[p] = topo::BaryPoint::vertex(10 + p);
                }
                std::vector<std::optional<topo::BaryPoint>> next;
                for (std::size_t m = 1;
                     m <= s.prefix.size() + kRoundsPastPrefix; ++m) {
                    std::vector<std::optional<topo::BaryPoint>> want;
                    try {
                        want = map_next_row(run, m, row);
                    } catch (const overflow_error&) {
                        EXPECT_THROW(next_view_positions(run.round(m - 1), row,
                                                         next),
                                     overflow_error)
                            << scenario.name << " " << s.to_string();
                        break;
                    }
                    next_view_positions(run.round(m - 1), row, next);
                    ASSERT_EQ(next, want) << scenario.name << " "
                                          << s.to_string() << " round " << m;
                    row.swap(next);
                    ++rows;
                }
            }
        }
    }
    EXPECT_GT(rows, 0u);
}

}  // namespace
}  // namespace gact::iis
