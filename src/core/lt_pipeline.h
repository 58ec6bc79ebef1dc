// The paper's headline application (Proposition 9.2): L_t is solvable in
// the t-resilient model, by a purely topological construction.
//
// The pipeline follows Section 9.2 exactly:
//  1. regions: R~_m is the union of the facets of Chr^{m+2} s having no
//     vertex on an (n-t-1)-face; R_0 = |L_t| and R_m peels off one more
//     ring toward the forbidden skeleton;
//  2. terminating subdivision: C_0 = s, C_1 = Chr s, C_2 = Chr^2 s, and
//     from stage 2 on every simplex whose vertices all avoid the
//     forbidden skeleton is terminated; K(T) accumulates the rings;
//  3. the continuous map f: identity on R_0, radial projection away from
//     the skeleton onto the boundary of R_0 elsewhere (RadialProjection:
//     exact integer arithmetic for n = 2, t = 1 — the paper's
//     illustrated case — built once per task);
//  4. the chromatic simplicial approximation delta : K(T) -> L_t of
//     Proposition 9.1, found by the CSP solver with candidates ordered by
//     distance to f (Theorem 8.4 guarantees existence);
//  5. admissibility of T for Res_t, checked against enumerated compact
//     run families (landing condition of Theorem 6.1).
// Stages 2-4 run as engine::build_general_witness driven by
// engine::LtStableRule (engine/general_route.h), and Engine::solve adds
// stage 5; this header holds the L_t-specific pieces they use.
// Protocol extraction and Definition 4.1 verification live in
// src/protocol/gact_protocol.h.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "core/chromatic_csp.h"
#include "core/eval_cache.h"
#include "core/terminating_subdivision.h"
#include "iis/projection.h"
#include "iis/run_enumeration.h"
#include "tasks/standard_tasks.h"

namespace gact::core {

/// How lt_approximation_problem orders each vertex's candidates.
enum class LtGuidance {
    kNone,     ///< no candidate ordering (solver default order)
    kNearest,  ///< nearest L vertex to the domain vertex itself
    kRadial,   ///< nearest to the radial projection (n = 2, t = 1 only)
};

/// The Proposition 9.1 approximation CSP for a materialized terminating
/// subdivision: domain K(T), codomain the task's outputs, carrier
/// constraints from Delta, optional identity fixing on the stable
/// vertices lying in L, and optional geometric candidate guidance. The
/// returned problem's closures reference `task` and `tsub`, which must
/// outlive it — and `lru`, when non-null: the Delta lookups by carrier
/// then go through it (core/eval_cache.h), once per face of the input
/// complex, here. allowed(sigma) is Delta of sigma's carrier, resolved by
/// carrier mask: every K(T) vertex's carrier is a bitmask over the input
/// vertices, computed once, here, and so is a table of Delta by mask,
/// one entry per face of the input complex. A call ORs the masks of
/// sigma's vertices and reads the table: the same complex (by address)
/// as Delta at the union of the vertex carriers.
///
/// Everything candidate guidance needs is built here, once per problem:
/// every output vertex's position by id, the positions' shared integer
/// denominator, and (for kRadial) the RadialProjection. The
/// order_candidates closure shares them and only projects and sorts: it
/// ranks whatever candidate list the solver hands it by (l1 distance,
/// vertex id), a strict total order per domain vertex, so ranking the
/// subset that survives root propagation gives exactly that subset's
/// order within the full ranked list.
///
/// When `nogood_pool` is non-null, the problem carries the cross-solve
/// learning hooks (core/nogood_store.h): the scope names the task plus
/// every problem-shaping parameter (stages, identity fixing, guidance,
/// and `nogood_scope_tag` — the caller's name for whatever else shaped
/// `tsub`, e.g. the StableRule that drove it), so re-solves of the same
/// construction — including scenarios that differ only in their
/// *model*, which never enters the CSP — share learned conflicts;
/// literal variables travel as the pool's stable (position, color)
/// keys, which K(T)'s global registry makes exact. Callers who
/// materialized `tsub` by any means other than task + stages MUST
/// encode that in the tag: two different stabilization rules over the
/// same task pose different CSPs and must not share a scope.
ChromaticMapProblem lt_approximation_problem(
    const tasks::AffineTask& task, const TerminatingSubdivision& tsub,
    bool fix_identity, LtGuidance guidance, AllowedComplexLru* lru = nullptr,
    SharedNogoodPool* nogood_pool = nullptr,
    const std::string& nogood_scope_tag = "");

/// The stabilization rule of the pipeline: from depth 2 on, a simplex is
/// stable when every vertex carrier has dimension >= n - t.
bool lt_stable_rule(int n, int t, const SubdividedComplex& cx,
                    const Simplex& s);

/// The ring index of a stable facet: 0 for R_0 (stable at depth 2), m for
/// the facets first stabilized at depth m+2.
std::size_t ring_of_stable_facet(const TerminatingSubdivision& tsub,
                                 const Simplex& global_facet);

/// The exact radial projection f of Section 9.2 for n = 2, t = 1: the
/// identity on |L_1|, and radial projection away from the nearest corner
/// onto the boundary of |L_1| outside.
///
/// Built once per task (lt_approximation_problem builds one per problem
/// and every order_candidates call reuses it). The geometry is exact and
/// runs in integers. The constructor writes every vertex of L as int64
/// numerators over one shared denominator D_L. A point x gets its own
/// denominator D_x. Points of |s| satisfy x_0 + x_1 + x_2 = 1, so any two
/// coordinates chart the plane of s faithfully:
///  * contains: a facet's exact coordinate box rejects most facets; a
///    facet whose box holds x contains it when x is on the inner side of
///    all three of its edge lines (three orientation tests, each an
///    __int128 cross product);
///  * project: corner c's ray through x is charted in the two coordinates
///    other than c's, where c is the origin. Each boundary point's side of
///    the ray is one cross product. A boundary segment with both endpoints
///    strictly on one side cannot meet the ray; every other segment's
///    hit (sigma, u) comes from Cramer's rule over the cross products,
///    with ray parameter s = sigma * D_x / (det * D_L). Hits are compared
///    by cross-multiplication, the first minimal one wins, and s >= 1
///    accepts the corner. The one BaryPoint built per accepted corner is
///    the combination of the winning segment's endpoints.
/// Both denominators are capped at 2^30, so every numerator is at most
/// 2^30 in magnitude and every product the kernel forms stays below
/// 2^122. The caps are checked before any product is formed. The Rational
/// code of the per-call projection this class replaced remains as the
/// fallback the data selects: for an x (or an L) whose denominator passes
/// the cap or that leaves the base 0..2, and, per corner, for a ray that
/// runs along a boundary segment (det = 0). Both paths give the same
/// answers (tests/radial_projection_test.cpp keeps the per-call
/// projection as its oracle).
/// Immutable once built; `contains` and `project` are pure reads, safe
/// from several threads. The task need not outlive it.
class RadialProjection {
public:
    /// Requires the task's base to be a 2-simplex with vertex ids 0..2.
    explicit RadialProjection(const tasks::AffineTask& lt);

    /// Whether `x` lies in |L| (the same answer as point_in_l).
    bool contains(const BaryPoint& x) const;

    /// f(x). Requires x in |s| and not a corner.
    BaryPoint project(const BaryPoint& x) const;

private:
    static constexpr std::size_t kCoords = 3;
    using Coords = std::array<std::int64_t, kCoords>;
    /// A point's coordinates 0..2 as numerators over `den`; den == 0 when
    /// the point takes the Rational path.
    struct ChartPoint {
        Coords num{};
        std::int64_t den = 0;
    };
    /// The line through two facet vertices: a*x_0 + b*x_1 over D_L, plus
    /// c over D_L^2, is >= 0 exactly on the facet's side.
    struct EdgeLine {
        std::int64_t a = 0, b = 0, c = 0;
    };
    struct ChartFacet {
        Coords lo{}, hi{};
        std::array<EdgeLine, 3> edges;
    };

    ChartPoint chart(const BaryPoint& x) const;
    bool contains_chart(const ChartPoint& x) const;
    bool contains_exact(const BaryPoint& x) const;
    /// Each boundary point's side of corner `corner`'s ray through x: a
    /// value whose sign is the side. chart_sides gives the cross products
    /// themselves, which chart_corner_hit reads.
    void chart_sides(std::size_t corner, const ChartPoint& x,
                     std::vector<std::int64_t>& side) const;
    void exact_sides(std::size_t corner, const BaryPoint& x,
                     std::vector<std::int64_t>& side) const;
    /// The corner's accepted point in integers: false when a boundary
    /// segment is collinear with the ray, which leaves the corner to
    /// exact_corner_hit; otherwise `hit` is set to the accepted point, if
    /// any.
    bool chart_corner_hit(std::size_t corner, const ChartPoint& x,
                          const std::vector<std::int64_t>& side,
                          std::optional<BaryPoint>& hit) const;
    /// The corner's accepted point by the Rational ray_segment_hits, over
    /// the segments whose endpoints `side` does not put strictly on one
    /// side of the ray.
    std::optional<BaryPoint> exact_corner_hit(
        std::size_t corner, const BaryPoint& x,
        const std::vector<std::int64_t>& side) const;

    /// L's facets as vertex positions.
    std::vector<std::vector<BaryPoint>> facets_;
    /// The distinct endpoints of L's boundary edges.
    std::vector<BaryPoint> points_;
    /// L's boundary edges in l_boundary_edges order, as indices into
    /// points_.
    std::vector<std::array<std::size_t, 2>> segments_;

    /// D_L, or 0 when L's denominators pass the cap.
    std::int64_t den_ = 0;
    /// The non-degenerate facets of L, in facets_ order.
    std::vector<ChartFacet> chart_facets_;
    /// points_ over D_L.
    std::vector<Coords> point_num_;
    /// Per corner and segment [a, b]: b_i * a_j - a_i * b_j over D_L^2 in
    /// the corner's chart (i, j), the numerator of the segment's hit
    /// parameter.
    std::array<std::vector<std::int64_t>, kCoords> sigma_;
};

/// Whether `x` lies in the realization of the task's complex L: the plain
/// scan of every facet with exact containment.
bool point_in_l(const tasks::AffineTask& lt, const BaryPoint& x);

/// The boundary edges of |L| (faces of exactly one facet of L), in sorted
/// order; used by the radial projection and by the figure bench.
std::vector<Simplex> l_boundary_edges(const tasks::AffineTask& lt);

/// Admissibility of T for a set of runs (Theorem 6.1 condition (a)): by
/// round `max_round`, every run's simplex sigma_k must lie in the
/// realization of a stable simplex of K(T) that has the dimension of the
/// run's participation face and whose carrier is a face of it (see
/// find_landing). One StableSimplexIndex (core/stable_index.h) serves all
/// the runs. `cancel` (exec/cancel.h), when set, is checked before the
/// index is built and before each run; once it has fired the check stops
/// with `cancelled` set, `admissible` false and `runs_checked` the runs
/// it got through — a cut check proves nothing either way.
struct AdmissibilityReport {
    bool admissible = false;
    bool cancelled = false;
    std::size_t runs_checked = 0;
    std::size_t max_landing_round = 0;
    std::vector<iis::Run> failures;
};

AdmissibilityReport check_admissibility(
    const TerminatingSubdivision& tsub, const std::vector<iis::Run>& runs,
    std::size_t max_round, const exec::CancelToken* cancel = nullptr);

/// The landing data of one run: the first round k at which the run
/// simplex sigma_k lies in the realization of a stable simplex tau of the
/// participation face's dimension with carrier(tau) a face of it (the
/// first such tau in sorted order), that simplex (global ids), and the
/// round from which outputs may fire — no earlier than the simplex's
/// stabilization stage (see TerminatingSubdivision::stable_since).
struct Landing {
    std::size_t round = 0;
    Simplex stable_facet;
    std::size_t output_round = 0;
};

/// Landing of a single run, if it happens by max_round.
std::optional<Landing> find_landing(const TerminatingSubdivision& tsub,
                                    const iis::Run& run,
                                    std::size_t max_round);

}  // namespace gact::core
