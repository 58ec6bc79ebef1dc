#include "topology/geometry.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "util/hash.h"
#include "util/require.h"

namespace gact::topo {

namespace {

/// Gaussian elimination over the rationals; reduces `m` (rows x cols,
/// row-major) in place and returns its rank.
std::size_t row_reduce(std::vector<std::vector<Rational>>& m) {
    const std::size_t rows = m.size();
    if (rows == 0) return 0;
    const std::size_t cols = m[0].size();
    std::size_t rank = 0;
    for (std::size_t col = 0; col < cols && rank < rows; ++col) {
        std::size_t pivot = rank;
        while (pivot < rows && m[pivot][col].is_zero()) ++pivot;
        if (pivot == rows) continue;
        std::swap(m[rank], m[pivot]);
        const Rational inv = Rational(1) / m[rank][col];
        for (std::size_t j = col; j < cols; ++j) m[rank][j] *= inv;
        for (std::size_t i = 0; i < rows; ++i) {
            if (i == rank || m[i][col].is_zero()) continue;
            const Rational factor = m[i][col];
            for (std::size_t j = col; j < cols; ++j) {
                m[i][j] -= factor * m[rank][j];
            }
        }
        ++rank;
    }
    return rank;
}

}  // namespace

BaryPoint::BaryPoint(std::vector<std::pair<VertexId, Rational>> coords) {
    std::map<VertexId, Rational> acc;
    for (auto& [v, w] : coords) {
        if (!w.is_zero()) acc[v] += w;
    }
    Rational total;
    for (auto& [v, w] : acc) {
        require(!w.is_negative(), "BaryPoint: negative coordinate");
        if (!w.is_zero()) coords_.emplace_back(v, w);
        total += w;
    }
    require(total == Rational(1), "BaryPoint: coordinates must sum to 1");
}

BaryPoint BaryPoint::vertex(VertexId v) {
    BaryPoint p;
    p.coords_.emplace_back(v, Rational(1));
    return p;
}

BaryPoint BaryPoint::combination(const std::vector<BaryPoint>& points,
                                 const std::vector<Rational>& weights) {
    require(points.size() == weights.size(),
            "BaryPoint::combination: size mismatch");
    std::map<VertexId, Rational> acc;
    Rational total;
    for (std::size_t i = 0; i < points.size(); ++i) {
        require(!weights[i].is_negative(),
                "BaryPoint::combination: negative weight");
        total += weights[i];
        for (const auto& [v, w] : points[i].coords_) {
            acc[v] += weights[i] * w;
        }
    }
    require(total == Rational(1), "BaryPoint::combination: weights must sum to 1");
    BaryPoint p;
    for (const auto& [v, w] : acc) {
        if (!w.is_zero()) p.coords_.emplace_back(v, w);
    }
    return p;
}

BaryPoint BaryPoint::barycenter(const Simplex& s) {
    require(!s.empty(), "BaryPoint::barycenter of empty simplex");
    BaryPoint p;
    const Rational w(1, static_cast<std::int64_t>(s.size()));
    for (VertexId v : s.vertices()) p.coords_.emplace_back(v, w);
    return p;
}

Rational BaryPoint::coord(VertexId v) const {
    for (const auto& [u, w] : coords_) {
        if (u == v) return w;
        if (u > v) break;
    }
    return Rational(0);
}

Simplex BaryPoint::support() const {
    std::vector<VertexId> verts;
    verts.reserve(coords_.size());
    for (const auto& [v, w] : coords_) verts.push_back(v);
    return Simplex(std::move(verts));
}

Rational BaryPoint::l1_distance(const BaryPoint& other) const {
    Rational total;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < coords_.size() || j < other.coords_.size()) {
        if (j >= other.coords_.size() ||
            (i < coords_.size() && coords_[i].first < other.coords_[j].first)) {
            total += coords_[i].second;
            ++i;
        } else if (i >= coords_.size() ||
                   other.coords_[j].first < coords_[i].first) {
            total += other.coords_[j].second;
            ++j;
        } else {
            total += (coords_[i].second - other.coords_[j].second).abs();
            ++i;
            ++j;
        }
    }
    return total;
}

std::string BaryPoint::to_string() const {
    std::string out = "(";
    bool first = true;
    for (const auto& [v, w] : coords_) {
        if (!first) out += ", ";
        out += std::to_string(v) + ":" + w.to_string();
        first = false;
    }
    out += ")";
    return out;
}

std::ostream& operator<<(std::ostream& os, const BaryPoint& p) {
    return os << p.to_string();
}

std::size_t hash_value(const BaryPoint& p) noexcept {
    std::size_t seed = p.coords().size();
    for (const auto& [v, w] : p.coords()) {
        hash_combine(seed, std::hash<VertexId>{}(v));
        hash_combine(seed, hash_value(w));
    }
    return seed;
}

std::vector<Rational> affine_coordinates(
    const BaryPoint& p, const std::vector<BaryPoint>& vertices) {
    require(!vertices.empty(), "affine_coordinates: no vertices");
    // Unknowns w_i; equations: for each base vertex v appearing anywhere,
    // sum_i w_i * vertices[i].coord(v) = p.coord(v); plus sum_i w_i = 1
    // (implied by the coordinate equations since all points sum to 1, but
    // keeping it explicit is harmless and guards degenerate inputs).
    std::vector<VertexId> base;
    for (const auto& q : vertices) {
        for (const auto& [v, w] : q.coords()) base.push_back(v);
    }
    for (const auto& [v, w] : p.coords()) base.push_back(v);
    std::sort(base.begin(), base.end());
    base.erase(std::unique(base.begin(), base.end()), base.end());

    const std::size_t k = vertices.size();
    std::vector<std::vector<Rational>> m;
    for (VertexId v : base) {
        std::vector<Rational> row(k + 1);
        for (std::size_t i = 0; i < k; ++i) row[i] = vertices[i].coord(v);
        row[k] = p.coord(v);
        m.push_back(std::move(row));
    }
    {
        std::vector<Rational> row(k + 1, Rational(1));
        m.push_back(std::move(row));
    }

    row_reduce(m);
    // After reduction to RREF: each nonzero row has a leading 1. A leading
    // 1 in the rhs column means the system is inconsistent; fewer than k
    // pivots among the unknown columns means the combination is not unique
    // (the vertex positions are affinely dependent).
    std::vector<Rational> solution(k);
    std::vector<bool> pivoted(k, false);
    for (const auto& r : m) {
        std::size_t lead = 0;
        while (lead < k + 1 && r[lead].is_zero()) ++lead;
        if (lead == k + 1) continue;   // zero row
        if (lead == k) return {};      // 0 = nonzero: inconsistent
        solution[lead] = r[k];
        pivoted[lead] = true;
    }
    for (bool p : pivoted) {
        if (!p) return {};  // affinely dependent vertices
    }
    return solution;
}

bool point_in_simplex(const BaryPoint& p,
                      const std::vector<BaryPoint>& vertices) {
    const std::vector<Rational> w = affine_coordinates(p, vertices);
    if (w.empty()) return false;
    for (const Rational& x : w) {
        if (x.is_negative()) return false;
    }
    return true;
}

std::optional<std::vector<Rational>> solve_linear_system(
    std::vector<std::vector<Rational>> matrix, std::vector<Rational> rhs) {
    require(matrix.size() == rhs.size(),
            "solve_linear_system: row count mismatch");
    if (matrix.empty()) return std::vector<Rational>{};
    const std::size_t cols = matrix[0].size();
    for (std::size_t r = 0; r < matrix.size(); ++r) {
        require(matrix[r].size() == cols,
                "solve_linear_system: ragged matrix");
        matrix[r].push_back(rhs[r]);
    }
    row_reduce(matrix);
    std::vector<Rational> solution(cols);
    std::vector<bool> pivoted(cols, false);
    for (const auto& row : matrix) {
        std::size_t lead = 0;
        while (lead < cols + 1 && row[lead].is_zero()) ++lead;
        if (lead == cols + 1) continue;  // zero row
        if (lead == cols) return std::nullopt;  // inconsistent
        solution[lead] = row[cols];
        pivoted[lead] = true;
    }
    for (bool p : pivoted) {
        if (!p) return std::nullopt;  // underdetermined
    }
    return solution;
}

Rational relative_volume(const std::vector<BaryPoint>& vertices,
                         const Simplex& base) {
    require(vertices.size() == base.size(),
            "relative_volume: vertex count must match base simplex");
    const std::span<const VertexId> cols = base.vertices();
    const std::size_t k = vertices.size();
    // Matrix of barycentric coordinates; determinant = signed volume ratio.
    std::vector<std::vector<Rational>> m(k, std::vector<Rational>(k));
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
            m[i][j] = vertices[i].coord(cols[j]);
        }
    }
    // Fraction-free-ish Gaussian elimination tracking the determinant.
    Rational det(1);
    for (std::size_t col = 0; col < k; ++col) {
        std::size_t pivot = col;
        while (pivot < k && m[pivot][col].is_zero()) ++pivot;
        if (pivot == k) return Rational(0);
        if (pivot != col) {
            std::swap(m[pivot], m[col]);
            det = -det;
        }
        det *= m[col][col];
        const Rational inv = Rational(1) / m[col][col];
        for (std::size_t i = col + 1; i < k; ++i) {
            if (m[i][col].is_zero()) continue;
            const Rational factor = m[i][col] * inv;
            for (std::size_t j = col; j < k; ++j) {
                m[i][j] -= factor * m[col][j];
            }
        }
    }
    return det.abs();
}

}  // namespace gact::topo
