// Abstract simplices: finite, sorted, duplicate-free vertex sets.
//
// Paper reference: Section 3.1. A simplex is a finite nonempty subset of
// the vertex set of a complex; its dimension is its cardinality minus one.
// This type also admits the empty simplex, which is convenient as a
// neutral element for joins and as the "carrier of nothing".
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "util/hash.h"
#include "util/require.h"

namespace gact::topo {

/// Vertex identifier within one simplicial complex.
using VertexId = std::uint32_t;

/// A simplex as a sorted set of vertex ids.
///
/// Up to kInline vertices are stored inline — every simplex of every
/// registered scenario fits — so building, copying and hashing a simplex
/// allocates nothing; larger simplices keep their vertices in an exactly
/// sized heap buffer. The storage is chosen by size alone (heap iff
/// size() > kInline). A moved-from simplex is empty.
class Simplex {
public:
    static constexpr std::size_t kInline = 4;

    /// The empty simplex (dimension -1).
    Simplex() noexcept = default;

    /// From an arbitrary list; sorted and deduplicated.
    Simplex(std::initializer_list<VertexId> vertices);
    explicit Simplex(std::span<const VertexId> vertices);

    Simplex(const Simplex& other);
    Simplex(Simplex&& other) noexcept;
    Simplex& operator=(const Simplex& other);
    Simplex& operator=(Simplex&& other) noexcept;
    ~Simplex() {
        if (on_heap()) delete[] heap_;
    }

    /// Number of vertices.
    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    /// Dimension = |vertices| - 1; the empty simplex has dimension -1.
    int dimension() const noexcept { return static_cast<int>(size_) - 1; }

    /// The vertices, sorted ascending.
    std::span<const VertexId> vertices() const noexcept {
        return {data(), size_};
    }

    bool contains(VertexId v) const noexcept;

    /// Face relation: is this a subset of `other`?
    bool is_face_of(const Simplex& other) const noexcept;

    /// Set operations (all results are valid simplices).
    Simplex union_with(const Simplex& other) const;
    Simplex intersection_with(const Simplex& other) const;
    /// this \ other.
    Simplex difference(const Simplex& other) const;

    Simplex with(VertexId v) const;
    Simplex without(VertexId v) const;

    /// All faces of this simplex, including itself, excluding the empty
    /// simplex. 2^size - 1 results.
    std::vector<Simplex> faces() const;

    /// faces(), in the same order, written over `out` so a loop over
    /// many simplices reuses one buffer.
    void faces_into(std::vector<Simplex>& out) const;

    /// All faces of exactly dimension d.
    std::vector<Simplex> faces_of_dimension(int d) const;

    /// The codimension-1 faces (boundary facets), in the order obtained by
    /// dropping vertex i; this order defines boundary-operator signs.
    std::vector<Simplex> boundary_faces() const;

    friend bool operator==(const Simplex& a, const Simplex& b) noexcept {
        return std::ranges::equal(a.vertices(), b.vertices());
    }
    friend bool operator<(const Simplex& a, const Simplex& b) noexcept {
        return std::ranges::lexicographical_compare(a.vertices(),
                                                    b.vertices());
    }

    std::string to_string() const;

private:
    /// `n` vertices, left for the caller to fill in sorted order.
    static Simplex uninitialized(std::size_t n);
    /// Drop to the first `n` vertices (n <= size()), moving them inline
    /// when the new size fits there.
    void truncate(std::size_t n) noexcept;

    bool on_heap() const noexcept { return size_ > kInline; }
    const VertexId* data() const noexcept {
        return on_heap() ? heap_ : inline_;
    }
    VertexId* data() noexcept { return on_heap() ? heap_ : inline_; }

    std::uint32_t size_ = 0;
    union {
        VertexId inline_[kInline] = {};
        VertexId* heap_;
    };
};

std::ostream& operator<<(std::ostream& os, const Simplex& s);

}  // namespace gact::topo

template <>
struct std::hash<gact::topo::Simplex> {
    std::size_t operator()(const gact::topo::Simplex& s) const noexcept {
        return gact::hash_range(s.vertices());
    }
};
