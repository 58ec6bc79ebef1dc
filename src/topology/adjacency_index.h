// Precomputed vertex/simplex incidence for a simplicial complex.
//
// The chromatic-CSP solver (core/chromatic_csp.h) needs, for every
// domain vertex, the simplices it belongs to (the constraints mentioning
// the variable) and its 1-skeleton neighbors (for degree tie-breaking in
// variable ordering). Recomputing these per search node is quadratic in
// the complex; this index builds them once per solve.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "topology/simplicial_complex.h"

namespace gact::topo {

/// A read-only view of one vertex's slice of a flat index array. Compares
/// equal to a std::vector holding the same elements in the same order.
template <typename T>
class IndexSlice {
public:
    using value_type = T;
    using iterator = const T*;
    using const_iterator = const T*;

    IndexSlice() = default;
    IndexSlice(const T* first, const T* last) : first_(first), last_(last) {}

    const T* begin() const noexcept { return first_; }
    const T* end() const noexcept { return last_; }
    std::size_t size() const noexcept {
        return static_cast<std::size_t>(last_ - first_);
    }
    bool empty() const noexcept { return first_ == last_; }
    const T& operator[](std::size_t i) const noexcept { return first_[i]; }

    friend bool operator==(const IndexSlice& a, const std::vector<T>& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

private:
    const T* first_ = nullptr;
    const T* last_ = nullptr;
};

/// Immutable incidence index over one complex. The complex must outlive
/// the index and must not change while the index is in use: the
/// incidence entries point into the complex's own simplex table, so no
/// simplex is copied. Both per-vertex tables are flat (CSR): one offset
/// array indexed by vertex id plus one array of entries, so a lookup is
/// two loads and building the index allocates a fixed handful of arrays.
class AdjacencyIndex {
public:
    AdjacencyIndex() = default;

    /// Index every simplex of dimension >= 1 by each of its vertices, and
    /// derive 1-skeleton neighbor sets. With `index_simplices` false only
    /// the (cheap) neighbor sets are built — enough for component
    /// decomposition and degree queries, not for forward checking.
    explicit AdjacencyIndex(const SimplicialComplex& complex,
                            bool index_simplices = true);
    /// A temporary complex would die before the index.
    explicit AdjacencyIndex(SimplicialComplex&& complex,
                            bool index_simplices = true) = delete;

    /// Simplices of dimension >= 1 containing `v`, in the complex's
    /// iteration order. Empty for unknown or isolated vertices. The
    /// pointed-to simplices are the complex's own.
    IndexSlice<const Simplex*> incident_simplices(VertexId v) const {
        return slice(incident_offsets_, incident_, v);
    }

    /// One past the largest constraint id: the slot count of the
    /// complex's table, or 0 when built with `index_simplices` false.
    std::size_t id_bound() const noexcept { return id_bound_; }

    /// The constraint id of a pointer obtained from incident_simplices():
    /// the simplex's slot in the complex's table, in [0, id_bound()).
    /// Per-constraint tables (core/eval_cache.h) index by it, turning
    /// simplex hashing into an array index.
    std::size_t id_of(const Simplex* s) const noexcept {
        return static_cast<std::size_t>(s - first_slot_);
    }

    /// Sorted distinct vertices sharing a 1-simplex with `v`.
    IndexSlice<VertexId> neighbors(VertexId v) const {
        return slice(neighbor_offsets_, neighbors_, v);
    }

    /// Number of 1-skeleton neighbors of `v`.
    std::size_t degree(VertexId v) const { return neighbors(v).size(); }

private:
    template <typename T>
    static IndexSlice<T> slice(const std::vector<std::uint32_t>& offsets,
                               const std::vector<T>& entries, VertexId v) {
        if (static_cast<std::size_t>(v) + 1 >= offsets.size()) return {};
        return {entries.data() + offsets[v], entries.data() + offsets[v + 1]};
    }

    const Simplex* first_slot_ = nullptr;  // slot 0 of the complex's table
    std::size_t id_bound_ = 0;
    // Vertex v's entries are [offsets[v], offsets[v + 1]); the offset
    // arrays span 0..max vertex id + 1 (empty for an edgeless complex).
    std::vector<std::uint32_t> incident_offsets_;
    std::vector<const Simplex*> incident_;
    std::vector<std::uint32_t> neighbor_offsets_;
    std::vector<VertexId> neighbors_;
};

}  // namespace gact::topo
