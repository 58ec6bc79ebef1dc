#include "core/terminating_subdivision.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/lt_pipeline.h"
#include "stabilization_oracle.h"
#include "stable_since_oracle.h"

namespace gact::core {
namespace {

const auto kNothing = [](const SubdividedComplex&, const Simplex&) {
    return false;
};
const auto kEverything = [](const SubdividedComplex&, const Simplex&) {
    return true;
};

TEST(TerminatingSubdivision, NoStableGivesPlainChr) {
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    t.advance(kNothing);
    t.advance(kNothing);
    EXPECT_EQ(t.stages(), 3u);
    EXPECT_EQ(t.complex_at(1).complex().facets().size(), 13u);
    EXPECT_EQ(t.complex_at(2).complex().facets().size(), 169u);
    EXPECT_TRUE(t.stable_complex().is_empty());
}

TEST(TerminatingSubdivision, EverythingStableFreezes) {
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    t.advance(kEverything);
    t.advance(kEverything);
    // All stages are the base complex itself.
    EXPECT_EQ(t.complex_at(1).complex().facets().size(), 1u);
    EXPECT_EQ(t.complex_at(2).complex().facets().size(), 1u);
    // K(T) is the base simplex (with global ids).
    EXPECT_EQ(t.stable_complex().complex().facets().size(), 1u);
    EXPECT_TRUE(t.stable_complex().is_pure(2));
}

TEST(TerminatingSubdivision, Section61EdgeExample) {
    // The figure of Section 6.1: terminate one edge of the triangle.
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    t.advance([](const SubdividedComplex& cx, const Simplex& s) {
        return cx.depth() == 0 && s.is_face_of(Simplex{0, 1});
    });
    EXPECT_EQ(t.complex_at(1).complex().facets().size(), 11u);
    t.complex_at(1).verify_subdivision_exactness();
    // Stable: the edge and its two endpoints (3 simplices).
    EXPECT_EQ(t.stable_at(0).size(), 3u);
    // The stable edge persists verbatim in the next stage.
    t.advance(kNothing);
    const auto e01 = t.stable_complex().complex().simplices_of_dimension(1);
    ASSERT_EQ(e01.size(), 1u);
    EXPECT_EQ(t.stable_carrier(e01[0]), Simplex({0, 1}));
}

TEST(TerminatingSubdivision, StableSimplicesNeverSubdividedAgain) {
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    // Stage 0: subdivide once with nothing stable.
    t.advance(kNothing);
    // Stage 1: stabilize the central facet of Chr s (all carriers full).
    t.advance([](const SubdividedComplex& cx, const Simplex& s) {
        for (topo::VertexId v : s.vertices()) {
            if (!(cx.carrier(v) == Simplex({0, 1, 2}))) return false;
        }
        return cx.depth() == 1;
    });
    const std::size_t stable_before = t.stable_complex().complex().size();
    EXPECT_GT(stable_before, 0u);
    // Two more stages: the stable part must persist unchanged.
    t.advance(kNothing);
    const std::size_t stable_after = t.stable_complex().complex().size();
    EXPECT_EQ(stable_before, stable_after);
    // The central facet of Chr s is a facet of C_3.
    bool found = false;
    for (const Simplex& f : t.complex_at(3).complex().facets()) {
        bool central = true;
        for (topo::VertexId v : f.vertices()) {
            const Rational w =
                t.complex_at(3).position(v).coord(
                    t.complex_at(3).complex().color(v));
            if (!(w == Rational(1, 5))) central = false;
        }
        if (central) found = true;
    }
    EXPECT_TRUE(found);
}

TEST(TerminatingSubdivision, GlobalIdsAreStableAcrossStages) {
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(1));
    // Stabilize vertex {0} at stage 1 and everything at stage 2; the
    // global id of the corner must not change.
    t.advance([](const SubdividedComplex& cx, const Simplex& s) {
        return cx.depth() == 0 && s == Simplex{0};
    });
    const auto v1 = t.find_stable_vertex(topo::BaryPoint::vertex(0), 0);
    ASSERT_TRUE(v1.has_value());
    t.advance(kEverything);
    const auto v2 = t.find_stable_vertex(topo::BaryPoint::vertex(0), 0);
    ASSERT_TRUE(v2.has_value());
    EXPECT_EQ(*v1, *v2);
}

TEST(TerminatingSubdivision, StablePositionsAndCarriers) {
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    t.advance(kNothing);
    t.advance(kEverything);
    // All Chr s vertices are now stable; check one interior vertex.
    const topo::BaryPoint center{{{0, Rational(1, 5)},
                                  {1, Rational(2, 5)},
                                  {2, Rational(2, 5)}}};
    const auto v = t.find_stable_vertex(center, 0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(t.stable_position(*v), center);
    EXPECT_EQ(t.stable_carrier(Simplex{*v}), Simplex({0, 1, 2}));
}

TEST(TerminatingSubdivision, StableSimplexContains) {
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(1));
    t.advance(kEverything);
    const auto facets = t.stable_facets();
    ASSERT_EQ(facets.size(), 1u);
    const topo::BaryPoint mid = topo::BaryPoint::barycenter(Simplex{0, 1});
    EXPECT_TRUE(t.stable_simplex_contains(facets[0], {mid}));
}

TEST(TerminatingSubdivision, FindStableVertexAcrossTableGrowths) {
    // Chr^2 of the tetrahedron, all stable: hundreds of global vertices
    // interned one by one, so the flat (position, color) table grows
    // from its first 8 slots several times over.
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(3));
    t.advance(kNothing);
    t.advance(kNothing);
    t.advance(kEverything);
    const auto& stable = t.stable_complex();
    const std::vector<topo::VertexId> ids = stable.vertex_ids();
    ASSERT_GT(ids.size(), 128u);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        ASSERT_EQ(ids[i], i);  // interned densely, in order
        const topo::BaryPoint& p = t.stable_position(ids[i]);
        const topo::Color c = stable.color(ids[i]);
        EXPECT_EQ(t.find_stable_vertex(p, c), ids[i]);
        EXPECT_FALSE(t.find_stable_vertex(p, (c + 1) % 4).has_value());
    }
    // A point of |s| that is no subdivision vertex.
    const topo::BaryPoint off{{{0, Rational(1, 2)}, {1, Rational(1, 2)}}};
    for (topo::Color c = 0; c < 4; ++c) {
        EXPECT_FALSE(t.find_stable_vertex(off, c).has_value());
    }
}

TEST(TerminatingSubdivision, EmptyPlaceholderRejectsAdvance) {
    TerminatingSubdivision t;
    EXPECT_THROW(t.advance(kNothing), precondition_error);
}

TEST(TerminatingSubdivision, ShardedAdvanceIsBitIdenticalToSequential) {
    // Per-facet sharding is a wall-clock knob only: every stage complex,
    // stable set, global id, and position must match the 1-thread build
    // exactly (work units are merged in facet order).
    const auto lt_rule = [](const SubdividedComplex& cx, const Simplex& s) {
        if (cx.depth() < 2) return false;
        for (VertexId v : s.vertices()) {
            if (cx.carrier(v).dimension() < 1) return false;
        }
        return true;
    };
    TerminatingSubdivision seq(topo::ChromaticComplex::standard_simplex(2));
    TerminatingSubdivision par(topo::ChromaticComplex::standard_simplex(2));
    for (int i = 0; i < 4; ++i) {
        seq.advance(lt_rule, 1);
        par.advance(lt_rule, 4);
    }
    ASSERT_EQ(seq.stages(), par.stages());
    for (std::size_t k = 0; k < seq.stages(); ++k) {
        EXPECT_EQ(seq.complex_at(k).complex().complex(),
                  par.complex_at(k).complex().complex())
            << "stage " << k;
        EXPECT_EQ(seq.stable_at(k), par.stable_at(k)) << "stage " << k;
    }
    EXPECT_EQ(seq.stable_complex().complex(), par.stable_complex().complex());
    for (VertexId v : seq.stable_complex().vertex_ids()) {
        EXPECT_EQ(seq.stable_position(v), par.stable_position(v));
        EXPECT_EQ(seq.stable_complex().color(v),
                  par.stable_complex().color(v));
    }
}

TEST(TerminatingSubdivision, StableSinceMatchesTheMapOracleUnderTheLtRule) {
    // Every K(T) simplex is stamped once, when first inserted; the stamp
    // must be the first stage whose Sigma_k holds it (the map-based
    // stamping it replaced), at 1 and at 4 threads. Four stages of the
    // L_t rule stabilize R_0 at depth 2 and a ring per later stage.
    for (const unsigned threads : {1u, 4u}) {
        TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
        for (int i = 0; i < 4; ++i) {
            t.advance(
                [](const SubdividedComplex& cx, const Simplex& s) {
                    return lt_stable_rule(2, 1, cx, s);
                },
                threads);
        }
        expect_stamps_match_map_oracle(t);
        std::vector<std::size_t> stamps_seen(t.stages(), 0);
        for (const Simplex& s : t.stable_complex().complex().simplices()) {
            ++stamps_seen[t.stable_since(s)];
        }
        EXPECT_EQ(stamps_seen[0] + stamps_seen[1], 0u) << threads;
        EXPECT_GT(stamps_seen[2], 0u) << threads;
        EXPECT_GT(stamps_seen[3], 0u) << threads;
    }
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(1));
    t.advance(kNothing);
    EXPECT_THROW(t.stable_since(Simplex{0}), precondition_error);
}

/// `stages` advances of `base` under `rule` at `threads`, each after a
/// step of the former stabilization pass, checked against it.
void expect_one_pass_matches_reference(const topo::ChromaticComplex& base,
                                       const StabilizeFn& rule,
                                       int stages, unsigned threads) {
    TerminatingSubdivision t(base);
    ReferenceStabilization ref;
    for (int i = 0; i < stages; ++i) {
        ref.step(t, rule);
        t.advance(rule, threads);
    }
    expect_matches_reference(t, ref);
}

TEST(TerminatingSubdivision, OnePassAdvanceMatchesTheReferenceUnderTheLtRule) {
    // Four stages of the n = 2 L_1 rule, and three of the n = 3 L_2
    // rule (R_0 of Chr^2 of the tetrahedron), at 1 and at 4 threads.
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        expect_one_pass_matches_reference(
            topo::ChromaticComplex::standard_simplex(2),
            [](const SubdividedComplex& cx, const Simplex& s) {
                return lt_stable_rule(2, 1, cx, s);
            },
            4, threads);
        expect_one_pass_matches_reference(
            topo::ChromaticComplex::standard_simplex(3),
            [](const SubdividedComplex& cx, const Simplex& s) {
                return lt_stable_rule(3, 2, cx, s);
            },
            3, threads);
    }
}

TEST(TerminatingSubdivision,
     OnePassAdvanceMatchesTheReferenceForEverythingAndTheEdgeRule) {
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        // Nothing for two stages, then everything: all of Chr^2 of the
        // triangle stabilizes at once.
        expect_one_pass_matches_reference(
            topo::ChromaticComplex::standard_simplex(2),
            [](const SubdividedComplex& cx, const Simplex&) {
                return cx.depth() >= 2;
            },
            3, threads);
        expect_one_pass_matches_reference(
            topo::ChromaticComplex::standard_simplex(3), kEverything, 2,
            threads);
        // Section 6.1: one edge of the triangle terminates at stage 0.
        expect_one_pass_matches_reference(
            topo::ChromaticComplex::standard_simplex(2),
            [](const SubdividedComplex& cx, const Simplex& s) {
                return cx.depth() == 0 && s.is_face_of(Simplex{0, 1});
            },
            3, threads);
    }
}

TEST(TerminatingSubdivision, RuleThatIsNotClosedUnderFacesThrows) {
    // The edge {0, 1} without its endpoints: advance() names the edge
    // and leaves the subdivision as it was, so a closed rule can go on.
    for (const unsigned threads : {1u, 4u}) {
        TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
        try {
            t.advance(
                [](const SubdividedComplex&, const Simplex& s) {
                    return s == Simplex{0, 1};
                },
                threads);
            ADD_FAILURE() << "no precondition_error at " << threads;
        } catch (const precondition_error& e) {
            EXPECT_NE(std::string(e.what()).find(Simplex{0, 1}.to_string()),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(t.stages(), 1u);
        EXPECT_TRUE(t.stable_at(0).is_empty());
        EXPECT_TRUE(t.stable_complex().is_empty());
        t.advance(kEverything, threads);
        EXPECT_EQ(t.stable_complex().complex().size(), 7u);
    }
}

TEST(TerminatingSubdivision, DeferredStagesMatchStagesReadEagerly) {
    // advance() defers the next stage to its first reader. Reading the
    // newest stage after every advance (eager) or only at the end (lazy)
    // must give the same stages, K(T) and stamps, at 1 and 4 threads.
    const auto lt_rule = [](const SubdividedComplex& cx, const Simplex& s) {
        return lt_stable_rule(2, 1, cx, s);
    };
    for (const unsigned threads : {1u, 4u}) {
        TerminatingSubdivision eager(
            topo::ChromaticComplex::standard_simplex(2));
        TerminatingSubdivision lazy(
            topo::ChromaticComplex::standard_simplex(2));
        for (int i = 0; i < 4; ++i) {
            eager.advance(lt_rule, threads);
            eager.complex_at(eager.stages() - 1);
            lazy.advance(lt_rule, threads);
        }
        ASSERT_EQ(eager.stages(), 5u) << threads;
        ASSERT_EQ(lazy.stages(), eager.stages()) << threads;
        EXPECT_EQ(lazy.stable_complex().complex(),
                  eager.stable_complex().complex())
            << threads;
        for (const Simplex& s : eager.stable_complex().complex().simplices()) {
            EXPECT_EQ(lazy.stable_since(s), eager.stable_since(s))
                << threads << " " << s;
        }
        for (std::size_t k = 0; k < eager.stages(); ++k) {
            const SubdividedComplex& e = eager.complex_at(k);
            const SubdividedComplex& l = lazy.complex_at(k);
            EXPECT_EQ(l.complex().complex(), e.complex().complex())
                << threads << " stage " << k;
            EXPECT_EQ(l.facets(), e.facets()) << threads << " stage " << k;
            for (VertexId v : e.complex().vertex_ids()) {
                EXPECT_EQ(l.position(v), e.position(v));
                EXPECT_EQ(l.carrier(v), e.position(v).support());
            }
            EXPECT_EQ(lazy.stable_at(k), eager.stable_at(k))
                << threads << " stage " << k;
        }
    }
}

TEST(TerminatingSubdivision, StageReferencesSurviveLaterStagesAndMoves) {
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    const SubdividedComplex& c0 = t.complex_at(0);
    t.advance(kNothing);
    EXPECT_THROW(t.complex_at(2), precondition_error);
    const SubdividedComplex& c1 = t.complex_at(1);  // builds stage 1
    const SimplicialComplex& s1 = t.stable_at(1);
    EXPECT_EQ(c0.facets().size(), 1u);
    EXPECT_EQ(c1.facets().size(), 13u);
    // More stages, each built by the next advance or by its first read,
    // then a move: the early references still read their stages.
    for (int i = 0; i < 2; ++i) t.advance(kNothing);
    EXPECT_EQ(t.complex_at(t.stages() - 1).facets().size(), 13u * 13 * 13);
    TerminatingSubdivision moved(std::move(t));
    EXPECT_EQ(&moved.complex_at(0), &c0);
    EXPECT_EQ(&moved.complex_at(1), &c1);
    EXPECT_EQ(c0.facets().size(), 1u);
    EXPECT_EQ(c0.complex().facets().size(), 1u);
    EXPECT_EQ(c1.facets().size(), 13u);
    EXPECT_EQ(c1.carrier(c1.facets()[0].vertices()[0]),
              c1.position(c1.facets()[0].vertices()[0]).support());
    EXPECT_TRUE(s1.is_empty());
}

TEST(TerminatingSubdivision, ConcurrentFirstReadsOfADeferredStageSeeOneComplex) {
    // Four threads make the first read of the deferred last stage at
    // once: one builds it, the others wait, and all see the same complex
    // (the one an eager read builds).
    const auto lt_rule = [](const SubdividedComplex& cx, const Simplex& s) {
        return lt_stable_rule(2, 1, cx, s);
    };
    TerminatingSubdivision eager(topo::ChromaticComplex::standard_simplex(2));
    TerminatingSubdivision lazy(topo::ChromaticComplex::standard_simplex(2));
    for (int i = 0; i < 3; ++i) {
        eager.advance(lt_rule, 2);
        lazy.advance(lt_rule, 2);
    }
    const SubdividedComplex& c0 = lazy.complex_at(0);
    const std::size_t last = lazy.stages() - 1;
    std::vector<const SubdividedComplex*> seen(4, nullptr);
    std::vector<const SimplicialComplex*> seen_stable(4, nullptr);
    std::vector<std::thread> readers;
    for (std::size_t i = 0; i < seen.size(); ++i) {
        readers.emplace_back([&, i] {
            seen[i] = &lazy.complex_at(last);
            seen_stable[i] = &lazy.stable_at(last);
        });
    }
    for (std::thread& r : readers) r.join();
    for (std::size_t i = 1; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i], seen[0]);
        EXPECT_EQ(seen_stable[i], seen_stable[0]);
    }
    EXPECT_EQ(seen[0]->complex().complex(),
              eager.complex_at(last).complex().complex());
    EXPECT_EQ(*seen_stable[0], eager.stable_at(last));
    EXPECT_EQ(&lazy.complex_at(0), &c0);
    EXPECT_EQ(c0.facets(), eager.complex_at(0).facets());
}

TEST(TerminatingSubdivision, ShardedPlainSubdivisionMatchesSequential) {
    const auto base = topo::ChromaticComplex::standard_simplex(2);
    const auto seq = topo::SubdividedComplex::identity(base)
                         .chromatic_subdivision(1)
                         .chromatic_subdivision(1);
    const auto par = topo::SubdividedComplex::identity(base)
                         .chromatic_subdivision(3)
                         .chromatic_subdivision(3);
    EXPECT_EQ(seq.complex().complex(), par.complex().complex());
    for (VertexId v : seq.complex().vertex_ids()) {
        EXPECT_EQ(seq.position(v), par.position(v));
        EXPECT_EQ(seq.complex().color(v), par.complex().color(v));
        EXPECT_EQ(seq.provenance(v).parent_vertex,
                  par.provenance(v).parent_vertex);
        EXPECT_EQ(seq.provenance(v).parent_simplex,
                  par.provenance(v).parent_simplex);
    }
}

}  // namespace
}  // namespace gact::core
