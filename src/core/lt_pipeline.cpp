#include "core/lt_pipeline.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>

#include "core/stable_index.h"
#include "exec/cancel.h"
#include "util/require.h"

namespace gact::core {

bool lt_stable_rule(int n, int t, const SubdividedComplex& cx,
                    const Simplex& s) {
    if (cx.depth() < 2) return false;
    for (VertexId v : s.vertices()) {
        if (cx.carrier(v).dimension() < n - t) return false;
    }
    return true;
}

std::size_t ring_of_stable_facet(const TerminatingSubdivision& tsub,
                                 const Simplex& global_facet) {
    // A facet belongs to ring m when it first appears in Sigma_{m+2}; we
    // recover this from the stage complexes by locating its vertices.
    // K(T) is Sigma_0 ∪ .. ∪ Sigma_{stages()-2}, so the scan ends before
    // the last stage and never builds a deferred one.
    for (std::size_t k = 2; k + 1 < tsub.stages(); ++k) {
        const SubdividedComplex& cx = tsub.complex_at(k);
        bool all_found = true;
        std::vector<VertexId> stage_verts;
        for (VertexId v : global_facet.vertices()) {
            const auto sv = cx.find_vertex(
                tsub.stable_position(v), tsub.stable_complex().color(v));
            if (!sv.has_value()) {
                all_found = false;
                break;
            }
            stage_verts.push_back(*sv);
        }
        if (all_found &&
            tsub.stable_at(k).contains(Simplex(stage_verts))) {
            return k - 2;
        }
    }
    throw precondition_error("ring_of_stable_facet: facet is not stable");
}

bool point_in_l(const tasks::AffineTask& lt, const BaryPoint& x) {
    for (const Simplex& f : lt.l_complex.facets()) {
        if (topo::point_in_simplex(x, lt.subdivision.positions_of(f))) {
            return true;
        }
    }
    return false;
}

std::vector<Simplex> l_boundary_edges(const tasks::AffineTask& lt) {
    // Boundary edges: faces of exactly one facet of L.
    std::map<Simplex, int> facet_count;
    for (const Simplex& f : lt.l_complex.facets()) {
        for (const Simplex& e : f.boundary_faces()) ++facet_count[e];
    }
    std::vector<Simplex> out;
    for (const auto& [e, count] : facet_count) {
        if (count == 1) out.push_back(e);
    }
    return out;
}

namespace {

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

/// Intersection of the ray c + s*(x - c) with the segment [a, b]:
/// solutions (s, u) of c + s d = a + u e with u in [0,1]; collinear cases
/// yield the endpoints. Returns candidate s values with their points.
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

// Shared-denominator headroom for the integer candidate-distance fast
// path below: an l1 distance accumulates at most 2(n + 1) terms of
// magnitude <= den, so capping den well inside int64 keeps every sum
// exact.
constexpr std::int64_t kGuideDenCap = std::int64_t{1} << 40;

// The radial projection's integer kernel: with L's denominator and x's
// both at most 2^30, a coordinate numerator is at most 2^30, a cross
// product at most 2^60, a Cramer determinant at most 2^61, and the
// largest product formed (two hits compared, sigma * det) below 2^122.
constexpr std::int64_t kRadialDenCap = std::int64_t{1} << 30;

// The input vertices a carrier mask can name: the carrier table holds
// 2^k entries for k input vertices.
constexpr std::size_t kMaxCarrierBits = 16;

/// lcm(a, b), or 0 when it would exceed `cap`.
std::int64_t lcm_capped(std::int64_t a, std::int64_t b, std::int64_t cap) {
    const std::int64_t g = std::gcd(a, b);
    if (a / g > cap / b) return 0;
    return (a / g) * b;
}

using Wide = __int128;

/// The lcm of `den` and the denominators of p's coordinates, or 0 when it
/// passes kRadialDenCap or p has a coordinate off the base 0..2.
std::int64_t chart_den(const BaryPoint& p, std::int64_t den) {
    for (const auto& [b, r] : p.coords()) {
        if (b >= 3 || den == 0) return 0;
        den = lcm_capped(den, r.den(), kRadialDenCap);
    }
    return den;
}

/// p's coordinates 0..2 as numerators over `den`, a multiple of each of
/// their denominators.
std::array<std::int64_t, 3> chart_nums(const BaryPoint& p, std::int64_t den) {
    std::array<std::int64_t, 3> out{};
    for (const auto& [b, r] : p.coords()) out[b] = r.num() * (den / r.den());
    return out;
}

/// Whether x is the base vertex `corner`.
bool is_corner(const BaryPoint& x, std::size_t corner) {
    return x.coords().size() == 1 && x.coords()[0].first == corner &&
           x.coords()[0].second == Rational(1);
}

}  // namespace

RadialProjection::RadialProjection(const tasks::AffineTask& lt) {
    require(lt.subdivision.base().dimension() == 2,
            "RadialProjection: implemented for n = 2");
    den_ = 1;
    for (const Simplex& f : lt.l_complex.facets()) {
        facets_.push_back(lt.subdivision.positions_of(f));
        for (const BaryPoint& p : facets_.back()) den_ = chart_den(p, den_);
        // The chart's containment test is for triangles.
        if (facets_.back().size() != 3) den_ = 0;
    }
    // Boundary edges of |L_1| as geometric segments between distinct
    // endpoints, so each endpoint's side is computed once per corner.
    std::map<VertexId, std::size_t> point_of;
    for (const Simplex& e : l_boundary_edges(lt)) {
        std::array<std::size_t, 2> ends{};
        for (std::size_t k = 0; k < 2; ++k) {
            const VertexId v = e.vertices()[k];
            const auto [it, added] = point_of.emplace(v, points_.size());
            if (added) points_.push_back(lt.subdivision.position(v));
            ends[k] = it->second;
        }
        segments_.push_back(ends);
    }
    // Boundary points are vertices of facets, so den_ covers them.
    if (den_ == 0) return;

    // The integer chart: facets in coordinates 0 and 1, each turned
    // counter-clockwise; a degenerate one contains no point (its affine
    // coordinates are not unique) and is left out.
    for (const std::vector<BaryPoint>& f : facets_) {
        std::array<Coords, 3> v;
        ChartFacet cf;
        for (std::size_t k = 0; k < 3; ++k) {
            v[k] = chart_nums(f[k], den_);
            for (std::size_t i = 0; i < kCoords; ++i) {
                cf.lo[i] = k == 0 ? v[k][i] : std::min(cf.lo[i], v[k][i]);
                cf.hi[i] = k == 0 ? v[k][i] : std::max(cf.hi[i], v[k][i]);
            }
        }
        const Wide turn = Wide{v[1][0] - v[0][0]} * (v[2][1] - v[0][1]) -
                          Wide{v[1][1] - v[0][1]} * (v[2][0] - v[0][0]);
        if (turn == 0) continue;
        if (turn < 0) std::swap(v[1], v[2]);
        for (std::size_t k = 0; k < 3; ++k) {
            const Coords& p = v[k];
            const Coords& q = v[(k + 1) % 3];
            // (q - p) x (x - p), scaled by D_L^2 * D_x.
            EdgeLine& e = cf.edges[k];
            e.a = -(q[1] - p[1]);
            e.b = q[0] - p[0];
            e.c = (q[1] - p[1]) * p[0] - (q[0] - p[0]) * p[1];
        }
        chart_facets_.push_back(cf);
    }
    for (const BaryPoint& p : points_) {
        point_num_.push_back(chart_nums(p, den_));
    }
    for (std::size_t corner = 0; corner < kCoords; ++corner) {
        const std::size_t i = (corner + 1) % kCoords;
        const std::size_t j = (corner + 2) % kCoords;
        for (const auto& [a, b] : segments_) {
            const Coords& pa = point_num_[a];
            const Coords& pb = point_num_[b];
            sigma_[corner].push_back(pb[i] * pa[j] - pa[i] * pb[j]);
        }
    }
}

RadialProjection::ChartPoint RadialProjection::chart(
    const BaryPoint& x) const {
    ChartPoint out;
    if (den_ == 0) return out;
    out.den = chart_den(x, 1);
    if (out.den == 0) return out;
    out.num = chart_nums(x, out.den);
    // Only a point off the plane of s (the empty BaryPoint) fails this.
    if (out.num[0] + out.num[1] + out.num[2] != out.den) out.den = 0;
    return out;
}

bool RadialProjection::contains_chart(const ChartPoint& x) const {
    // The box test compares x_i * D_L with lo_i * D_x and hi_i * D_x; an
    // edge line's value is scaled by D_L^2 * D_x.
    std::array<Wide, kCoords> scaled;
    for (std::size_t i = 0; i < kCoords; ++i) {
        scaled[i] = Wide{x.num[i]} * den_;
    }
    for (const ChartFacet& f : chart_facets_) {
        bool in = true;
        for (std::size_t i = 0; in && i < kCoords; ++i) {
            in = scaled[i] >= Wide{f.lo[i]} * x.den &&
                 scaled[i] <= Wide{f.hi[i]} * x.den;
        }
        for (std::size_t k = 0; in && k < 3; ++k) {
            const EdgeLine& e = f.edges[k];
            in = Wide{den_} * (Wide{e.a} * x.num[0] + Wide{e.b} * x.num[1]) +
                     Wide{x.den} * e.c >=
                 0;
        }
        if (in) return true;
    }
    return false;
}

bool RadialProjection::contains_exact(const BaryPoint& x) const {
    // Off the base no facet of L reaches.
    for (const auto& [b, r] : x.coords()) {
        if (b >= kCoords) return false;
    }
    for (const std::vector<BaryPoint>& f : facets_) {
        if (topo::point_in_simplex(x, f)) return true;
    }
    return false;
}

bool RadialProjection::contains(const BaryPoint& x) const {
    const ChartPoint cx = chart(x);
    return cx.den != 0 ? contains_chart(cx) : contains_exact(x);
}

void RadialProjection::chart_sides(std::size_t corner, const ChartPoint& x,
                                   std::vector<std::int64_t>& side) const {
    // In the chart (i, j) the corner is the origin, and boundary point p's
    // side of the ray is the sign of the cross product x × p.
    const std::size_t i = (corner + 1) % kCoords;
    const std::size_t j = (corner + 2) % kCoords;
    side.clear();
    for (const Coords& p : point_num_) {
        side.push_back(static_cast<std::int64_t>(Wide{x.num[i]} * p[j] -
                                                 Wide{x.num[j]} * p[i]));
    }
}

void RadialProjection::exact_sides(std::size_t corner, const BaryPoint& x,
                                   std::vector<std::int64_t>& side) const {
    // The same cross product in Rationals. Points with coordinates 0..2
    // summing to 1 fill a plane that these two coordinates chart
    // faithfully. (If x's coordinates do not, the ray leaves the plane at
    // the corner and no segment yields a hit at all.)
    const auto i = static_cast<VertexId>((corner + 1) % kCoords);
    const auto j = static_cast<VertexId>((corner + 2) % kCoords);
    const Rational xi = x.coord(i);
    const Rational xj = x.coord(j);
    side.clear();
    for (const BaryPoint& p : points_) {
        const Rational l = xi * p.coord(j);
        const Rational r = xj * p.coord(i);
        side.push_back(l < r ? -1 : (r < l ? 1 : 0));
    }
}

bool RadialProjection::chart_corner_hit(std::size_t corner,
                                        const ChartPoint& x,
                                        const std::vector<std::int64_t>& side,
                                        std::optional<BaryPoint>& hit) const {
    // Solving s x = a + u (b - a) over D_x and D_L by Cramer's rule gives
    // det = x × a - x × b, u = (x × a) / det and
    // s = sigma * D_x / (det * D_L).
    std::size_t best = segments_.size();
    Wide best_sigma = 0, best_det = 1, best_u = 0;
    for (std::size_t k = 0; k < segments_.size(); ++k) {
        const std::int64_t ca = side[segments_[k][0]];
        const std::int64_t cb = side[segments_[k][1]];
        // Both endpoints strictly on one side: no hit.
        if ((ca > 0 && cb > 0) || (ca < 0 && cb < 0)) continue;
        Wide det = Wide{ca} - cb;
        if (det == 0) return false;  // collinear with the ray
        Wide sigma = sigma_[corner][k];
        Wide u = ca;
        if (det < 0) {
            det = -det;
            sigma = -sigma;
            u = -u;
        }
        // u is in [0, 1]: the endpoints are not strictly on one side.
        if (sigma <= 0) continue;  // s <= 0: behind the corner
        if (best == segments_.size() || sigma * best_det < best_sigma * det) {
            best = k;
            best_sigma = sigma;
            best_det = det;
            best_u = u;
        }
    }
    if (best != segments_.size() &&
        best_sigma * x.den >= best_det * den_) {
        const Rational u(static_cast<std::int64_t>(best_u),
                         static_cast<std::int64_t>(best_det));
        hit = BaryPoint::combination(
            {points_[segments_[best][0]], points_[segments_[best][1]]},
            {Rational(1) - u, u});
    }
    return true;
}

std::optional<BaryPoint> RadialProjection::exact_corner_hit(
    std::size_t corner, const BaryPoint& x,
    const std::vector<std::int64_t>& side) const {
    constexpr int n = 2;
    const BaryPoint c = BaryPoint::vertex(static_cast<VertexId>(corner));
    std::vector<RayHit> hits;
    for (const auto& [a, b] : segments_) {
        // Both endpoints strictly on one side: the segment misses the
        // whole line, so ray_segment_hits would add nothing.
        if ((side[a] > 0 && side[b] > 0) || (side[a] < 0 && side[b] < 0)) {
            continue;
        }
        ray_segment_hits(c, x, points_[a], points_[b], n, hits);
    }
    if (hits.empty()) return std::nullopt;
    const auto min_hit = std::min_element(
        hits.begin(), hits.end(),
        [](const RayHit& p, const RayHit& q) { return p.s < q.s; });
    if (min_hit->s < Rational(1)) return std::nullopt;
    return min_hit->point;
}

BaryPoint RadialProjection::project(const BaryPoint& x) const {
    const ChartPoint cx = chart(x);
    if (cx.den != 0 ? contains_chart(cx) : contains_exact(x)) return x;

    // Identify the corner whose radial ray reaches x before R_0: the one
    // for which every boundary hit is at parameter s >= 1.
    std::optional<BaryPoint> best;
    std::vector<std::int64_t> side;
    side.reserve(points_.size());
    for (std::size_t corner = 0; corner < kCoords; ++corner) {
        if (is_corner(x, corner)) continue;
        std::optional<BaryPoint> hit;
        if (cx.den != 0) {
            chart_sides(corner, cx, side);
        } else {
            exact_sides(corner, x, side);
        }
        if (cx.den == 0 || !chart_corner_hit(corner, cx, side, hit)) {
            hit = exact_corner_hit(corner, x, side);
        }
        if (!hit.has_value()) continue;
        if (best.has_value()) {
            throw precondition_error(
                "RadialProjection: ambiguous corner for " + x.to_string());
        }
        best = std::move(hit);
    }
    if (!best.has_value()) {
        throw precondition_error("RadialProjection: no corner projects " +
                                 x.to_string());
    }
    return std::move(*best);
}

ChromaticMapProblem lt_approximation_problem(const tasks::AffineTask& task,
                                             const TerminatingSubdivision& tsub,
                                             bool fix_identity,
                                             LtGuidance guidance,
                                             AllowedComplexLru* lru,
                                             SharedNogoodPool* nogood_pool,
                                             const std::string& nogood_scope_tag) {
    const ChromaticComplex& k_complex = tsub.stable_complex();
    ChromaticMapProblem problem;
    problem.domain = &k_complex;
    problem.codomain = &task.task.outputs;
    if (nogood_pool != nullptr) {
        // Cross-solve learning scope: every parameter that shapes the
        // CSP is in the name — including the caller's tag for the rule
        // that drove the subdivision — so two solves share a scope
        // exactly when they pose the same problem (the model is
        // deliberately absent — it only enters at the admissibility
        // stage, after the CSP).
        problem.nogood_pool = nogood_pool;
        problem.nogood_scope =
            task.task.name + "|gen|rule=" + nogood_scope_tag +
            "|stages=" + std::to_string(tsub.stages()) +
            "|fix=" + (fix_identity ? "1" : "0") +
            "|guide=" + std::to_string(static_cast<int>(guidance));
        problem.pool_var_key = [&tsub, nogood_pool](VertexId v) {
            return nogood_pool->intern(
                tsub.stable_position(v), tsub.stable_complex().color(v));
        };
    }
    // allowed(sigma) is Delta of sigma's carrier (tsub.stable_carrier),
    // the union of its vertices' carriers. Carriers are faces of the
    // input complex, so each is a bitmask over the input vertices. Every
    // K(T) vertex's mask is computed once, here, and so is Delta of every
    // face of the input complex, in a table by mask (through `lru` when
    // one is given). allowed(sigma) ORs the masks of sigma's vertices and
    // reads the table.
    const tasks::Task& inner = task.task;
    const std::vector<VertexId> inputs = inner.inputs.vertex_ids();
    require(inputs.size() <= kMaxCarrierBits,
            "lt_approximation_problem: too many input vertices for carrier "
            "masks");
    std::vector<std::uint32_t> bit_of(inputs.empty() ? 0 : inputs.back() + 1,
                                      0);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        bit_of[inputs[i]] = std::uint32_t{1} << i;
    }
    const auto mask_of = [&bit_of](const Simplex& carrier) {
        std::uint32_t mask = 0;
        for (VertexId b : carrier.vertices()) {
            require(b < bit_of.size() && bit_of[b] != 0,
                    "lt_approximation_problem: carrier off the input "
                    "complex");
            mask |= bit_of[b];
        }
        return mask;
    };
    struct CarrierTable {
        std::vector<std::uint32_t> vertex_mask;  // by K(T) vertex id
        // Delta of each face of the input complex by mask; null for the
        // masks of non-faces.
        std::vector<const SimplicialComplex*> delta;
    };
    auto table = std::make_shared<CarrierTable>();
    table->delta.assign(std::size_t{1} << inputs.size(), nullptr);
    for (const Simplex& face : inner.inputs.complex().simplices()) {
        if (!inner.delta.is_defined_at(face)) continue;
        table->delta[mask_of(face)] =
            lru == nullptr ? &inner.delta.at(face)
                           : &lru->get(face, [&inner, &face]() {
                                 return &inner.delta.at(face);
                             });
    }
    for (VertexId v : k_complex.vertex_ids()) {
        if (v >= table->vertex_mask.size()) {
            table->vertex_mask.resize(v + 1, 0);
        }
        table->vertex_mask[v] = mask_of(tsub.stable_position(v).support());
    }
    problem.allowed = [table](const Simplex& sigma)
        -> const SimplicialComplex& {
        std::uint32_t mask = 0;
        for (VertexId v : sigma.vertices()) mask |= table->vertex_mask[v];
        const SimplicialComplex* allowed = table->delta[mask];
        if (allowed == nullptr) {
            throw precondition_error(
                "lt_approximation_problem: Delta undefined at the carrier "
                "of " +
                sigma.to_string());
        }
        return *allowed;
    };

    if (fix_identity) {
        // Identity on the stable vertices that are vertices of L itself
        // (the R_0 part of K(T)).
        for (VertexId v : k_complex.vertex_ids()) {
            const auto lv = task.subdivision.find_vertex(
                tsub.stable_position(v), k_complex.color(v));
            if (lv.has_value() && task.l_complex.contains_vertex(*lv)) {
                problem.fixed[v] = *lv;
            }
        }
    }

    if (guidance != LtGuidance::kNone) {
        // Candidate order: nearest (to the radial projection of the
        // vertex when requested, else to the vertex itself) first, ties
        // by id — a strict total order per vertex, so the solver can rank
        // whatever subset of the candidates survives its root
        // propagation. Every output vertex's position is looked up here,
        // once, in a table by vertex id; the closure runs once per domain
        // vertex with two or more surviving candidates. The distance
        // computation additionally rescales every candidate coordinate to
        // one shared denominator, so each closure call measures distances
        // in pure integer arithmetic. At a common denominator the scaled
        // distances order exactly like the rationals they stand for (ties
        // broken by vertex id either way); if an lcm would overflow the
        // headroom, the closure falls back to exact Rational distances —
        // same order, just slower.
        struct Guide {
            // f of Section 9.2, built once here for every closure call.
            std::optional<RadialProjection> radial;
            // Indexed by output vertex id: its position in the task's
            // subdivision (null for ids that are not output vertices)
            // and the same coordinates as numerators over the shared
            // denominator `den`.
            std::vector<const BaryPoint*> position;
            std::vector<std::vector<std::pair<VertexId, std::int64_t>>>
                scaled;
            std::int64_t den = 1;
            bool use_scaled = true;
        };
        auto guide = std::make_shared<Guide>();
        if (guidance == LtGuidance::kRadial) guide->radial.emplace(task);
        const std::vector<VertexId> outputs = task.task.outputs.vertex_ids();
        if (!outputs.empty()) guide->position.resize(outputs.back() + 1);
        for (VertexId w : outputs) {
            guide->position[w] = &task.subdivision.position(w);
            for (const auto& [bv, r] : guide->position[w]->coords()) {
                if (guide->den != 0) {
                    guide->den =
                        lcm_capped(guide->den, r.den(), kGuideDenCap);
                }
            }
        }
        if (guide->den == 0) {
            guide->use_scaled = false;
            guide->den = 1;
        } else {
            guide->scaled.resize(guide->position.size());
            for (VertexId w : outputs) {
                auto& sc = guide->scaled[w];
                sc.reserve(guide->position[w]->coords().size());
                for (const auto& [bv, r] : guide->position[w]->coords()) {
                    sc.emplace_back(bv, r.num() * (guide->den / r.den()));
                }
            }
        }
        problem.order_candidates = [&tsub, guide](
                                       VertexId v,
                                       std::vector<VertexId>& candidates) {
            BaryPoint target = tsub.stable_position(v);
            if (guide->radial) target = guide->radial->project(target);
            if (guide->use_scaled) {
                // Extend the shared denominator to cover this target.
                std::int64_t dv = guide->den;
                for (const auto& [bv, r] : target.coords()) {
                    dv = lcm_capped(dv, r.den(), kGuideDenCap);
                    if (dv == 0) break;
                }
                if (dv != 0) {
                    const std::int64_t f = dv / guide->den;
                    std::vector<std::pair<VertexId, std::int64_t>> tgt;
                    tgt.reserve(target.coords().size());
                    for (const auto& [bv, r] : target.coords()) {
                        tgt.emplace_back(bv, r.num() * (dv / r.den()));
                    }
                    std::vector<std::pair<std::int64_t, VertexId>> scored;
                    scored.reserve(candidates.size());
                    for (VertexId w : candidates) {
                        const auto& cc = guide->scaled[w];
                        std::int64_t dist = 0;
                        std::size_t a = 0, b = 0;
                        while (a < cc.size() && b < tgt.size()) {
                            if (cc[a].first == tgt[b].first) {
                                const std::int64_t d =
                                    cc[a].second * f - tgt[b].second;
                                dist += d < 0 ? -d : d;
                                ++a;
                                ++b;
                            } else if (cc[a].first < tgt[b].first) {
                                dist += cc[a].second * f;
                                ++a;
                            } else {
                                dist += tgt[b].second;
                                ++b;
                            }
                        }
                        for (; a < cc.size(); ++a) dist += cc[a].second * f;
                        for (; b < tgt.size(); ++b) dist += tgt[b].second;
                        scored.emplace_back(dist, w);
                    }
                    std::sort(scored.begin(), scored.end());
                    for (std::size_t i = 0; i < scored.size(); ++i) {
                        candidates[i] = scored[i].second;
                    }
                    return;
                }
            }
            std::vector<std::pair<Rational, VertexId>> scored;
            scored.reserve(candidates.size());
            for (VertexId w : candidates) {
                scored.emplace_back(target.l1_distance(*guide->position[w]),
                                    w);
            }
            std::sort(scored.begin(), scored.end());
            for (std::size_t i = 0; i < scored.size(); ++i) {
                candidates[i] = scored[i].second;
            }
        };
    }
    return problem;
}

namespace {

/// The face spanned by a run's participants.
Simplex participation_face(const iis::Run& run) {
    std::vector<VertexId> face_verts;
    for (gact::ProcessId p : run.participants().members()) {
        face_verts.push_back(static_cast<VertexId>(p));
    }
    return Simplex{std::move(face_verts)};
}

/// The landing candidates, sorted within each dimension: the stable
/// d-simplices of K(T) for every d in [low, high] (lists below `low`
/// stay empty).
StableSimplexIndex landing_index(const TerminatingSubdivision& tsub,
                                 int low, int high) {
    const SimplicialComplex& complex = tsub.stable_complex().complex();
    std::vector<std::vector<Simplex>> by_dimension(
        static_cast<std::size_t>(std::max(high + 1, 0)));
    for (int d = std::max(low, 0); d <= high; ++d) {
        by_dimension[static_cast<std::size_t>(d)] =
            complex.simplices_of_dimension(d);
    }
    return StableSimplexIndex(tsub, std::move(by_dimension));
}

std::optional<Landing> land(const TerminatingSubdivision& tsub,
                            const StableSimplexIndex& index,
                            const iis::Run& run, std::size_t max_round) {
    // The landing simplex must live inside the face spanned by the run's
    // participants: condition (2) of Definition 4.1 constrains outputs to
    // Delta(omega ∩ chi^{-1}(part(r))), and condition (b) of Theorem 6.1
    // delivers delta(tau) in Delta(carrier(tau)) — so tau's carrier must
    // be a face of the participation face. The candidates are the stable
    // simplices of K(T) of the participation dimension whose carrier is
    // a face of the participation face, in sorted order.
    require(run.num_processes() ==
                static_cast<std::uint32_t>(tsub.base().dimension() + 1),
            "find_landing: one base vertex per process");
    const Simplex face = participation_face(run);
    const auto d = static_cast<std::size_t>(face.dimension());

    // sigma_k's vertices are the round-k views of round k's processes;
    // their positions advance one round at a time (iis::view_positions'
    // recurrence), never past the round the run lands at.
    std::vector<std::optional<BaryPoint>> row(run.num_processes());
    for (gact::ProcessId p = 0; p < run.num_processes(); ++p) {
        row[p] = BaryPoint::vertex(static_cast<VertexId>(p));
    }
    std::vector<BaryPoint> points;
    for (std::size_t k = 1; k <= max_round; ++k) {
        row = iis::next_view_positions(run, k, row);
        points.clear();
        for (gact::ProcessId p : run.round(k - 1).support().members()) {
            points.push_back(*row[p]);
        }
        if (const Simplex* tau = index.locate(d, face, points)) {
            return Landing{k, *tau, std::max(k, tsub.stable_since(*tau))};
        }
    }
    return std::nullopt;
}

}  // namespace

std::optional<Landing> find_landing(const TerminatingSubdivision& tsub,
                                    const iis::Run& run,
                                    std::size_t max_round) {
    const int d = participation_face(run).dimension();
    return land(tsub, landing_index(tsub, d, d), run, max_round);
}

AdmissibilityReport check_admissibility(const TerminatingSubdivision& tsub,
                                        const std::vector<iis::Run>& runs,
                                        std::size_t max_round,
                                        const exec::CancelToken* cancel) {
    AdmissibilityReport report;
    const auto cut = [&] {
        if (cancel == nullptr || !cancel->cancelled()) return false;
        report.admissible = false;
        report.cancelled = true;
        return true;
    };
    if (cut()) return report;
    report.admissible = true;
    // One index for every run: the candidates of each participation
    // dimension, each list in the order find_landing scans it.
    const StableSimplexIndex index = landing_index(
        tsub, 0, tsub.stable_complex().complex().dimension());
    for (const iis::Run& run : runs) {
        if (cut()) return report;
        ++report.runs_checked;
        const auto landing = land(tsub, index, run, max_round);
        if (!landing.has_value()) {
            report.admissible = false;
            report.failures.push_back(run);
        } else {
            report.max_landing_round =
                std::max(report.max_landing_round, landing->round);
        }
    }
    return report;
}

}  // namespace gact::core
