// Exact geometry for geometric realizations (paper, Section 3.1).
//
// Points of |C| are functions alpha : V -> [0,1] with finite support in a
// simplex of C and sum 1. We represent them sparsely with exact rationals,
// which makes carrier computation (the support), point-in-simplex tests and
// subdivision-exactness volume checks exact rather than floating-point.
#pragma once

#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "topology/simplex.h"
#include "util/rational.h"

namespace gact::topo {

/// A point of a geometric realization, in barycentric coordinates over the
/// vertex ids of a base complex. Invariants: entries sorted by vertex id,
/// all coordinates strictly positive, coordinates sum to 1.
class BaryPoint {
public:
    BaryPoint() = default;

    /// From (vertex, weight) pairs; zero weights dropped, must sum to 1.
    explicit BaryPoint(std::vector<std::pair<VertexId, Rational>> coords);

    /// The base vertex v itself.
    static BaryPoint vertex(VertexId v);

    /// Affine combination sum(weights[i] * points[i]); weights must sum
    /// to 1 and be non-negative.
    static BaryPoint combination(const std::vector<BaryPoint>& points,
                                 const std::vector<Rational>& weights);
    /// The same, over points held elsewhere (no copies).
    static BaryPoint combination(std::span<const BaryPoint* const> points,
                                 std::span<const Rational> weights);

    /// The barycenter of the base simplex s.
    static BaryPoint barycenter(const Simplex& s);

    const std::vector<std::pair<VertexId, Rational>>& coords() const noexcept {
        return coords_;
    }

    /// Coordinate of base vertex v (zero if absent).
    Rational coord(VertexId v) const;

    /// The support: the minimal base simplex whose realization contains
    /// this point ("carrier").
    Simplex support() const;

    /// l1 distance, the metric the paper puts on |C|.
    Rational l1_distance(const BaryPoint& other) const;

    friend bool operator==(const BaryPoint& a, const BaryPoint& b) noexcept =
        default;
    friend bool operator<(const BaryPoint& a, const BaryPoint& b) noexcept {
        return a.coords_ < b.coords_;
    }

    std::string to_string() const;

private:
    std::vector<std::pair<VertexId, Rational>> coords_;
};

std::ostream& operator<<(std::ostream& os, const BaryPoint& p);

std::size_t hash_value(const BaryPoint& p) noexcept;

/// Is `p` in the closed realization of the geometric simplex spanned by
/// `vertices` (given by their positions)? Solved exactly: p must be a
/// non-negative affine combination of the vertex positions.
bool point_in_simplex(const BaryPoint& p, const std::vector<BaryPoint>& vertices);

/// The barycentric coordinates of `p` with respect to `vertices`, if `p`
/// lies in their affine hull and the combination is unique; empty otherwise.
/// A returned vector w satisfies sum w[i] = 1 and p = sum w[i]*vertices[i]
/// (w may have negative entries if p is outside the simplex).
std::vector<Rational> affine_coordinates(const BaryPoint& p,
                                         const std::vector<BaryPoint>& vertices);

/// Volume of the simplex spanned by `vertices` relative to the base simplex
/// whose vertex set is `base` (all vertex positions must be supported in
/// `base`). Returns |det| of the coordinate matrix; equals
/// vol(simplex)/vol(base). Requires |vertices| == |base|.
Rational relative_volume(const std::vector<BaryPoint>& vertices,
                         const Simplex& base);

/// Solve the linear system `matrix` * x = rhs exactly over the rationals
/// (rows x cols, row-major). Returns the solution when it exists and is
/// unique, nullopt otherwise (inconsistent or underdetermined).
std::optional<std::vector<Rational>> solve_linear_system(
    std::vector<std::vector<Rational>> matrix, std::vector<Rational> rhs);

}  // namespace gact::topo

template <>
struct std::hash<gact::topo::BaryPoint> {
    std::size_t operator()(const gact::topo::BaryPoint& p) const noexcept {
        return gact::topo::hash_value(p);
    }
};
