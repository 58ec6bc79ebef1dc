// Oracle agreement for the Section 9.2 radial projection
// (core::RadialProjection). The class is built once per task and decides
// containment and the ray hits in integers over shared denominators, with
// two exact prefilters: a per-facet coordinate box before the orientation
// tests, and a side-of-line test that skips boundary segments lying
// strictly on one side of a corner's ray. Points whose denominators pass
// the integer cap, and rays collinear with a boundary segment, take the
// Rational path instead. None of this may change an answer, so this file
// keeps the per-call projection the class replaced verbatim as the oracle
// and compares the two on every stable vertex of the lt-2-1 K(T) at 4, 5
// and 6 stages and of the lt-2-2 K(T), through the candidate order of the
// approximation problem, on points on either side of the integer cap, on
// a lattice of |s| that covers L's boundary, and on constructed points
// that sit exactly on the prefilters' edge cases: rays through a boundary
// vertex (a zero side on one endpoint), rays along an edge of s (segments
// collinear with the ray) and points of the boundary of |L| that pass a
// facet's box only on the box's boundary.
#include "core/lt_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <vector>

#include "engine/stable_rule.h"
#include "tasks/standard_tasks.h"
#include "util/require.h"

namespace gact::core {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the per-call projection as it was before RadialProjection,
// with its two helpers, unchanged.

/// Coordinate difference b - a over the base vertex ids 0..n.
std::vector<Rational> coord_diff(const BaryPoint& b, const BaryPoint& a,
                                 int n) {
    std::vector<Rational> out;
    out.reserve(n + 1);
    for (int i = 0; i <= n; ++i) {
        out.push_back(b.coord(static_cast<VertexId>(i)) -
                      a.coord(static_cast<VertexId>(i)));
    }
    return out;
}

struct RayHit {
    Rational s;
    BaryPoint point;
};

void ray_segment_hits(const BaryPoint& c, const BaryPoint& x,
                      const BaryPoint& a, const BaryPoint& b, int n,
                      std::vector<RayHit>& out) {
    const std::vector<Rational> d = coord_diff(x, c, n);
    const std::vector<Rational> e = coord_diff(b, a, n);
    const std::vector<Rational> rhs = coord_diff(a, c, n);

    // Find a non-singular 2x2 subsystem s*d - u*e = rhs.
    for (int i = 0; i <= n; ++i) {
        for (int j = i + 1; j <= n; ++j) {
            const Rational det = d[i] * (-e[j]) - (-e[i]) * d[j];
            if (det.is_zero()) continue;
            const Rational s =
                (rhs[i] * (-e[j]) - (-e[i]) * rhs[j]) / det;
            const Rational u = (d[i] * rhs[j] - rhs[i] * d[j]) / det;
            // Verify the remaining coordinates.
            for (int m = 0; m <= n; ++m) {
                if (!(s * d[m] - u * e[m] == rhs[m])) return;  // no solution
            }
            if (u < Rational(0) || u > Rational(1)) return;
            if (s <= Rational(0)) return;
            std::vector<BaryPoint> pts = {a, b};
            std::vector<Rational> weights = {Rational(1) - u, u};
            out.push_back(RayHit{s, BaryPoint::combination(pts, weights)});
            return;
        }
    }
    // All 2x2 systems singular: d parallel to e (or degenerate). The
    // collinear case contributes the endpoints if they lie on the ray.
    for (const BaryPoint& endpoint : {a, b}) {
        const std::vector<Rational> g = coord_diff(endpoint, c, n);
        // endpoint = c + s*d needs g = s*d componentwise.
        Rational s;
        bool found_s = false;
        bool ok = true;
        for (int m = 0; m <= n; ++m) {
            if (d[m].is_zero()) {
                if (!g[m].is_zero()) ok = false;
            } else if (!found_s) {
                s = g[m] / d[m];
                found_s = true;
            } else if (!(g[m] == s * d[m])) {
                ok = false;
            }
        }
        if (ok && found_s && s > Rational(0)) {
            out.push_back(RayHit{s, endpoint});
        }
    }
}

BaryPoint reference_projection(const tasks::AffineTask& lt,
                               const BaryPoint& x) {
    const int n = lt.subdivision.base().dimension();
    require(n == 2, "radial_projection_l1: implemented for n = 2");
    if (point_in_l(lt, x)) return x;

    // Boundary edges of |L_1| as geometric segments.
    std::vector<std::pair<BaryPoint, BaryPoint>> segments;
    for (const Simplex& e : l_boundary_edges(lt)) {
        const auto pos = lt.subdivision.positions_of(e);
        segments.emplace_back(pos[0], pos[1]);
    }

    // Identify the corner whose radial ray reaches x before R_0: the one
    // for which every boundary hit is at parameter s >= 1.
    std::optional<BaryPoint> best;
    for (int corner = 0; corner <= n; ++corner) {
        const BaryPoint c = BaryPoint::vertex(static_cast<VertexId>(corner));
        if (x == c) continue;
        std::vector<RayHit> hits;
        for (const auto& [a, b] : segments) {
            ray_segment_hits(c, x, a, b, n, hits);
        }
        if (hits.empty()) continue;
        const auto min_hit = std::min_element(
            hits.begin(), hits.end(),
            [](const RayHit& p, const RayHit& q) { return p.s < q.s; });
        if (min_hit->s >= Rational(1)) {
            require(!best.has_value(),
                    "radial_projection_l1: ambiguous corner for " +
                        x.to_string());
            best = min_hit->point;
        }
    }
    require(best.has_value(),
            "radial_projection_l1: no corner projects " + x.to_string());
    return *best;
}

// ---------------------------------------------------------------------------

/// A projection's answer: the image, or nullopt when it threw.
std::optional<BaryPoint> outcome(const auto& project, const BaryPoint& x) {
    try {
        return project(x);
    } catch (const precondition_error&) {
        return std::nullopt;
    }
}

/// Assert that the class and the oracle agree on `x`, both on membership
/// in |L| and on f(x) (or on f being undefined there).
void expect_agrees(const tasks::AffineTask& task, const RadialProjection& f,
                   const BaryPoint& x) {
    EXPECT_EQ(f.contains(x), point_in_l(task, x)) << x.to_string();
    const auto got =
        outcome([&](const BaryPoint& p) { return f.project(p); }, x);
    const auto want = outcome(
        [&](const BaryPoint& p) { return reference_projection(task, p); }, x);
    EXPECT_EQ(got, want) << x.to_string();
}

/// The L_t task on the 2-simplex with its K(T), built as the registry's
/// lt-2-t scenarios build it: `stages` stages (four in the registry)
/// under the L_t stable rule.
struct Construction {
    tasks::AffineTask task;
    TerminatingSubdivision tsub;

    explicit Construction(int t, int stages = 4)
        : task(tasks::t_resilience_task(2, t)), tsub(task.task.inputs) {
        const engine::LtStableRule rule(2, t);
        for (int stage = 0; stage < stages; ++stage) {
            tsub.advance([&rule](const SubdividedComplex& cx,
                                 const Simplex& s) {
                return rule.stable(cx, s);
            });
        }
    }
};

const Construction& construction(int t) {
    static const Construction l1(1);
    static const Construction l2(2);
    return t == 1 ? l1 : l2;
}

BaryPoint mix(const BaryPoint& p, const BaryPoint& q, Rational w) {
    return BaryPoint::combination({p, q}, {Rational(1) - w, w});
}

/// The endpoints of L's boundary segments.
std::set<BaryPoint> boundary_vertices(const tasks::AffineTask& task) {
    std::set<BaryPoint> out;
    for (const Simplex& e : l_boundary_edges(task)) {
        for (const BaryPoint& p : task.subdivision.positions_of(e)) {
            out.insert(p);
        }
    }
    return out;
}

TEST(RadialProjection, AgreesOnEveryStableVertex) {
    for (int t : {1, 2}) {
        const Construction& c = construction(t);
        const RadialProjection f(c.task);
        std::size_t moved = 0;
        for (VertexId v : c.tsub.stable_complex().vertex_ids()) {
            const BaryPoint& x = c.tsub.stable_position(v);
            expect_agrees(c.task, f, x);
            if (!f.contains(x)) ++moved;
        }
        // L_1 leaves a collar of ring-1 vertices to project; L_2 is all
        // of Chr^2 s, so f is the identity there.
        if (t == 1) {
            EXPECT_GT(moved, 0u);
        } else {
            EXPECT_EQ(moved, 0u);
        }
    }
}

TEST(RadialProjection, AgreesOnDeeperStableVertices) {
    // More stages refine the collar rings, so K(T) carries larger
    // denominators than at the registry's four.
    for (int stages : {5, 6}) {
        const Construction c(1, stages);
        const RadialProjection f(c.task);
        std::size_t moved = 0;
        for (VertexId v : c.tsub.stable_complex().vertex_ids()) {
            const BaryPoint& x = c.tsub.stable_position(v);
            expect_agrees(c.task, f, x);
            if (!f.contains(x)) ++moved;
        }
        EXPECT_GT(moved, 0u) << stages << " stages";
    }
}

TEST(RadialProjection, CandidateOrderFollowsTheOracle) {
    // The approximation problem builds its projection once and orders
    // each vertex's candidates by l1 distance to f(x), ties by id. With
    // identity fixing on or off the order must be exactly the one the
    // oracle's f(x) gives, for the full color list and for a subset.
    for (int t : {1, 2}) {
        const Construction& c = construction(t);
        const ChromaticComplex& outputs = c.task.task.outputs;
        std::map<VertexId, std::vector<VertexId>> want;
        for (VertexId v : c.tsub.stable_complex().vertex_ids()) {
            const BaryPoint fx =
                reference_projection(c.task, c.tsub.stable_position(v));
            std::vector<std::pair<Rational, VertexId>> scored;
            for (VertexId w : outputs.vertex_ids()) {
                if (outputs.color(w) != c.tsub.stable_complex().color(v)) {
                    continue;
                }
                scored.emplace_back(
                    fx.l1_distance(c.task.subdivision.position(w)), w);
            }
            std::sort(scored.begin(), scored.end());
            for (const auto& [dist, w] : scored) want[v].push_back(w);
        }
        for (bool fix_identity : {true, false}) {
            const ChromaticMapProblem problem = lt_approximation_problem(
                c.task, c.tsub, fix_identity, LtGuidance::kRadial);
            ASSERT_TRUE(problem.order_candidates);
            for (const auto& [v, order] : want) {
                // Handed the color's vertices by id, as the solver's
                // initial domains list them.
                std::vector<VertexId> ranked = order;
                std::sort(ranked.begin(), ranked.end());
                problem.order_candidates(v, ranked);
                EXPECT_EQ(ranked, order)
                    << "t=" << t << " fix=" << fix_identity << " v=" << v;
                // A subset ranks to its subsequence of the full order.
                std::vector<VertexId> odd_want;
                for (VertexId w : order) {
                    if (w % 2 == 1) odd_want.push_back(w);
                }
                std::vector<VertexId> odd = odd_want;
                std::sort(odd.begin(), odd.end());
                problem.order_candidates(v, odd);
                EXPECT_EQ(odd, odd_want)
                    << "t=" << t << " fix=" << fix_identity << " v=" << v;
            }
        }
    }
}

TEST(RadialProjection, RaysThroughBoundaryVertices) {
    // x between a corner c and a boundary vertex p of L: c's ray through x
    // meets p, where one endpoint of each incident segment has side 0. A
    // prefilter that dropped zero-side segments would lose that hit.
    const Construction& c = construction(1);
    const RadialProjection f(c.task);
    std::size_t projected_to_p = 0;
    for (const BaryPoint& p : boundary_vertices(c.task)) {
        for (VertexId corner : {0u, 1u, 2u}) {
            const BaryPoint c0 = BaryPoint::vertex(corner);
            for (const Rational w :
                 {Rational(1, 4), Rational(1, 2), Rational(3, 4)}) {
                const BaryPoint x = mix(c0, p, w);
                expect_agrees(c.task, f, x);
                if (!f.contains(x) &&
                    outcome([&](const BaryPoint& q) { return f.project(q); },
                            x) == p) {
                    ++projected_to_p;
                }
            }
        }
    }
    EXPECT_GT(projected_to_p, 0u);
}

TEST(RadialProjection, RaysAlongEdgesOfS) {
    // A point on an edge of s near a corner: the corner's ray runs along
    // the edge, collinear with the boundary segments of L lying on it
    // (side 0 at both endpoints). f preserves the edge.
    const Construction& c = construction(1);
    const RadialProjection f(c.task);
    for (VertexId a : {0u, 1u, 2u}) {
        for (VertexId b : {0u, 1u, 2u}) {
            if (a == b) continue;
            for (const Rational w :
                 {Rational(1, 20), Rational(1, 30), Rational(1, 50)}) {
                const BaryPoint x =
                    mix(BaryPoint::vertex(a), BaryPoint::vertex(b), w);
                expect_agrees(c.task, f, x);
                ASSERT_FALSE(f.contains(x)) << x.to_string();
                EXPECT_TRUE(f.project(x).support().is_face_of(Simplex{a, b}))
                    << x.to_string();
            }
        }
    }
}

TEST(RadialProjection, BoundaryPointsOnTheBoxBoundary) {
    // Points of the boundary of |L|: boundary vertices and points of the
    // boundary segments. f fixes them. The ones that matter for the box
    // prefilter touch the box of every L facet containing them, so a
    // strict box test would reject them.
    const Construction& c = construction(1);
    const RadialProjection f(c.task);
    std::vector<BaryPoint> points;
    for (const Simplex& e : l_boundary_edges(c.task)) {
        const auto pos = c.task.subdivision.positions_of(e);
        points.push_back(pos[0]);
        points.push_back(mix(pos[0], pos[1], Rational(1, 2)));
        points.push_back(mix(pos[0], pos[1], Rational(1, 3)));
    }
    std::size_t box_boundary_only = 0;
    for (const BaryPoint& x : points) {
        expect_agrees(c.task, f, x);
        EXPECT_TRUE(f.contains(x)) << x.to_string();
        EXPECT_EQ(f.project(x), x);
        bool touches_every_box = true;
        for (const Simplex& facet : c.task.l_complex.facets()) {
            const auto pos = c.task.subdivision.positions_of(facet);
            if (!topo::point_in_simplex(x, pos)) continue;
            bool touches = false;
            for (VertexId i : {0u, 1u, 2u}) {
                Rational lo = pos[0].coord(i);
                Rational hi = lo;
                for (const BaryPoint& q : pos) {
                    lo = std::min(lo, q.coord(i));
                    hi = std::max(hi, q.coord(i));
                }
                if (x.coord(i) == lo || x.coord(i) == hi) touches = true;
            }
            if (!touches) touches_every_box = false;
        }
        if (touches_every_box) ++box_boundary_only;
    }
    EXPECT_GT(box_boundary_only, 0u);
}

// The denominator cap of RadialProjection's integer path.
constexpr std::int64_t kIntegerCap = std::int64_t{1} << 30;

/// The lcm of x's coordinate denominators, saturated at 2^62.
std::int64_t denominator(const BaryPoint& x) {
    constexpr std::int64_t kSaturated = std::int64_t{1} << 62;
    std::int64_t den = 1;
    for (const auto& [b, r] : x.coords()) {
        const std::int64_t g = std::gcd(den, r.den());
        if (den / g > kSaturated / r.den()) return kSaturated;
        den = den / g * r.den();
    }
    return den;
}

TEST(RadialProjection, PointsPastTheIntegerCapTakeTheRationalPath) {
    // Mixes with weight 1/(2^31 - 1) carry a denominator past the cap, so
    // containment and every corner run the Rational path: points next to
    // a corner (projected) and next to each boundary vertex of L.
    const Construction& c = construction(1);
    const RadialProjection f(c.task);
    const Rational w(1, (std::int64_t{1} << 31) - 1);
    std::size_t moved = 0;
    for (const BaryPoint& p : boundary_vertices(c.task)) {
        for (VertexId corner : {0u, 1u, 2u}) {
            const BaryPoint c0 = BaryPoint::vertex(corner);
            for (const BaryPoint& x : {mix(c0, p, w), mix(p, c0, w)}) {
                ASSERT_GT(denominator(x), kIntegerCap) << x.to_string();
                expect_agrees(c.task, f, x);
                if (!f.contains(x)) ++moved;
            }
        }
    }
    EXPECT_GT(moved, 0u);
}

TEST(RadialProjection, PointsJustUnderTheIntegerCap) {
    // The same mixes with the largest weight denominator m that keeps the
    // point's denominator within the cap: the integer path with its
    // numerators near their bound.
    const Construction& c = construction(1);
    const RadialProjection f(c.task);
    std::size_t moved = 0;
    for (const BaryPoint& p : boundary_vertices(c.task)) {
        for (VertexId corner : {0u, 1u, 2u}) {
            const BaryPoint c0 = BaryPoint::vertex(corner);
            for (bool near_corner : {true, false}) {
                const auto at = [&](std::int64_t m) {
                    const Rational w(1, m);
                    return near_corner ? mix(c0, p, w) : mix(p, c0, w);
                };
                std::int64_t m = kIntegerCap / denominator(p) + 1;
                while (denominator(at(m)) > kIntegerCap) --m;
                const BaryPoint x = at(m);
                ASSERT_GT(denominator(x), kIntegerCap / 64) << x.to_string();
                expect_agrees(c.task, f, x);
                if (!f.contains(x)) ++moved;
            }
        }
    }
    EXPECT_GT(moved, 0u);
}

TEST(RadialProjection, ContainsAgreesWithPointInLOnALattice) {
    // The points (a, b, c) / N of |s|, inside L and outside it. L_1's
    // boundary vertices have denominators 3, 5, 9, 15, 25 and 75, so both
    // lattices hold some of them, and points of its boundary edges.
    for (int t : {1, 2}) {
        const Construction& c = construction(t);
        const RadialProjection f(c.task);
        const std::set<BaryPoint> boundary = boundary_vertices(c.task);
        for (std::int64_t n : {30, 45}) {
            std::size_t inside = 0;
            std::size_t on_boundary = 0;
            for (std::int64_t a = 0; a <= n; ++a) {
                for (std::int64_t b = 0; a + b <= n; ++b) {
                    const BaryPoint x({{0, Rational(a, n)},
                                       {1, Rational(b, n)},
                                       {2, Rational(n - a - b, n)}});
                    const bool in = f.contains(x);
                    EXPECT_EQ(in, point_in_l(c.task, x))
                        << "t=" << t << " " << x.to_string();
                    if (in) ++inside;
                    if (boundary.contains(x)) ++on_boundary;
                }
            }
            const std::size_t total =
                static_cast<std::size_t>((n + 1) * (n + 2) / 2);
            EXPECT_GT(inside, 0u);
            if (t == 1) {
                EXPECT_LT(inside, total);
                EXPECT_GT(on_boundary, 0u) << n;
            }
        }
    }
}

TEST(RadialProjection, RequiresTheTwoSimplexBase) {
    EXPECT_THROW(RadialProjection(tasks::immediate_snapshot_task(3)),
                 precondition_error);
}

}  // namespace
}  // namespace gact::core
