// Locating exact points in the stable complex K(T) (Theorem 6.1 (a)).
//
// Both landing tests ask for the first stable simplex, in a fixed
// candidate order, whose realization contains a set of exact points:
// admissibility (find_landing) for a run's sigma_k, and the view-local
// landing rule of protocol extraction for a snapshot hull. The index
// keeps, per candidate, two necessary conditions that reject almost every
// candidate without rational geometry:
//  * the carrier mask: a point of |tau| has its support inside
//    carrier(tau);
//  * the box: each coordinate of a point of |tau| lies between the least
//    and the greatest value of that coordinate over tau's vertices.
// Only a candidate that passes both gets the exact test
// TerminatingSubdivision::stable_simplex_contains, so every answer is
// still decided by exact rational containment.
#pragma once

#include <cstdint>
#include <vector>

#include "core/terminating_subdivision.h"

namespace gact::core {

/// Stable simplices of K(T) listed by dimension, each with its carrier
/// mask and coordinate box. Immutable once built; `locate` is a pure read,
/// safe from several threads. The subdivision must outlive the index.
class StableSimplexIndex {
public:
    /// Index `by_dimension[d]`, a list of stable d-simplices of `tsub`'s
    /// K(T), for every d, keeping each list's order. Requires every base
    /// vertex id below 32.
    StableSimplexIndex(const TerminatingSubdivision& tsub,
                       std::vector<std::vector<Simplex>> by_dimension);

    /// Number of dimension lists.
    std::size_t dimensions() const noexcept { return offsets_.size() - 1; }

    /// The first simplex of list `d`, in list order, whose carrier is a
    /// face of `within` and whose realization contains every point of
    /// `points`; nullptr if there is none.
    const Simplex* locate(std::size_t d, const Simplex& within,
                          const std::vector<BaryPoint>& points) const;

private:
    /// Bits of the base vertex ids of `s` (ids outside the base ignored).
    std::uint32_t mask_of(const Simplex& s) const;

    const TerminatingSubdivision* tsub_;
    std::size_t width_ = 0;  // coordinates per box: largest base id + 1
    std::vector<Simplex> simplices_;     // the lists, concatenated
    std::vector<std::size_t> offsets_;   // list d: [offsets_[d], offsets_[d+1])
    std::vector<std::uint32_t> carrier_;  // per simplex
    std::vector<Rational> lo_;  // per simplex, width_ coordinates each
    std::vector<Rational> hi_;
};

}  // namespace gact::core
