// Simplicial complexes (paper, Section 3.1).
//
// A complex is stored as the downward-closed set of its simplices. All the
// combinatorial notions of Section 3.1 are provided: faces, skeleta, purity,
// open and closed stars, links, and connectivity of the 1-skeleton.
#pragma once

#include <cstddef>
#include <iterator>
#include <vector>

#include "topology/simplex.h"

namespace gact::topo {

/// What one SimplicialComplex::from_facets build did: the contiguous
/// slot ranges it was split into (one per worker), the faces deferred
/// because their probe would have run past the end of their home range,
/// and the rebuilds a range passing 3/4 load forced.
struct ClosureStats {
    std::size_t ranges = 0;
    std::size_t spills = 0;
    std::size_t rebuilds = 0;
};

/// A set of nonempty simplices: one flat open-addressing table with
/// linear probing. Slots hold simplices by value (inline up to
/// Simplex::kInline vertices), a vacant slot holds the empty simplex, and
/// nothing is ever erased, so a probe stops at the first vacant slot.
/// Iteration visits the occupied slots in slot order; the order is not
/// meaningful. Const access is a pure read, safe from several threads.
class SimplexSet {
public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    SimplexSet() = default;
    SimplexSet(const SimplexSet& other);
    SimplexSet(SimplexSet&& other) noexcept;
    SimplexSet& operator=(const SimplexSet& other);
    SimplexSet& operator=(SimplexSet&& other) noexcept;
    ~SimplexSet() { release(); }

    class const_iterator {
    public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Simplex;
        using difference_type = std::ptrdiff_t;
        using pointer = const Simplex*;
        using reference = const Simplex&;

        const_iterator() = default;
        reference operator*() const noexcept { return *slot_; }
        pointer operator->() const noexcept { return slot_; }
        const_iterator& operator++() noexcept {
            ++slot_;
            skip_vacant();
            return *this;
        }
        const_iterator operator++(int) noexcept {
            const_iterator old = *this;
            ++*this;
            return old;
        }
        friend bool operator==(const const_iterator&,
                               const const_iterator&) = default;

    private:
        friend class SimplexSet;
        const_iterator(const Simplex* slot, const Simplex* end) noexcept
            : slot_(slot), end_(end) {
            skip_vacant();
        }
        void skip_vacant() noexcept {
            while (slot_ != end_ && slot_->empty()) ++slot_;
        }
        const Simplex* slot_ = nullptr;
        const Simplex* end_ = nullptr;
    };

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    const_iterator begin() const noexcept {
        return {slots_, slots_ + slot_count_};
    }
    const_iterator end() const noexcept {
        return {slots_ + slot_count_, slots_ + slot_count_};
    }

    bool contains(const Simplex& s) const noexcept { return find(s) != npos; }

    /// Insert a nonempty simplex; false if it was already present.
    bool insert(Simplex&& s);
    bool insert(const Simplex& s) { return insert(Simplex(s)); }

    /// Make room for `n` elements without further rehashing.
    void reserve(std::size_t n);

    /// Slot-level access for passes over the whole table: the table has
    /// slot_count() slots, a vacant one holds the empty simplex, and
    /// find() returns the slot holding `s`, or npos.
    std::size_t slot_count() const noexcept { return slot_count_; }
    const Simplex& slot(std::size_t i) const noexcept { return slots_[i]; }
    std::size_t find(const Simplex& s) const noexcept;

    friend bool operator==(const SimplexSet& a, const SimplexSet& b);

private:
    friend class SimplicialComplex;

    /// The slot holding `s`, or the vacant slot where it would go.
    std::size_t probe(const Simplex& s) const noexcept;
    void rehash(std::size_t slot_count);
    /// Destroy and free every slot, leaving the set empty.
    void release() noexcept;

    /// Fill an empty set with the downward closure of `facets` (each
    /// nonempty, at most 24 vertices), sharded into at most
    /// `num_threads` contiguous slot ranges; see
    /// SimplicialComplex::from_facets.
    void build_closure(const std::vector<Simplex>& facets,
                       unsigned num_threads, ClosureStats& stats);

    // The slots are allocated apart from their construction, so that a
    // sharded build constructs, and so first touches, each slot range on
    // the worker that fills it. Outside build_closure every slot is
    // constructed.
    Simplex* slots_ = nullptr;
    std::size_t slot_count_ = 0;  // 0 or a power of two
    std::size_t size_ = 0;
};

/// A finite simplicial complex over vertex ids.
class SimplicialComplex {
public:
    SimplicialComplex() = default;

    /// Build the downward closure of the given facets.
    ///
    /// The table is sized once, up front, from the facet sizes, and split
    /// into contiguous slot ranges: at most `num_threads`, at most the
    /// shared scheduler's worker count, and none smaller than a minimum
    /// range (a small complex is one range, built on the calling thread).
    /// Each range has one worker, which constructs its slots first and
    /// then walks every facet: it hashes each face from the facet's
    /// vertex subset (the std::hash<Simplex> recipe) without building it,
    /// and builds and inserts only the faces homed in its own range. So
    /// workers write disjoint slot ranges and read no other slot. A probe
    /// that would run past the end of its range is deferred (`spills`);
    /// the deferred faces are inserted on the calling thread after the
    /// join, so every element stays reachable from its home slot. When a
    /// range passes 3/4 load (a complex of disjoint facets has more faces
    /// than the size estimate), the table doubles and the build restarts
    /// (`rebuilds`). The simplices are the same for every `num_threads`;
    /// only their slot order may differ. `stats`, when given, receives
    /// what the build did.
    static SimplicialComplex from_facets(const std::vector<Simplex>& facets,
                                         unsigned num_threads = 1,
                                         ClosureStats* stats = nullptr);

    /// Build from a simplex list that is already closed under faces
    /// (every face of every entry appears in the list). Skips the
    /// per-simplex face enumeration of add_simplex — the caller vouches
    /// for closedness, e.g. because the list is the image of a closed
    /// set under a vertex map.
    static SimplicialComplex from_closed(std::vector<Simplex> simplices);

    /// Insert a simplex together with all its faces.
    void add_simplex(const Simplex& s);

    /// Insert a simplex whose proper faces are all present already,
    /// probing for `s` alone — the caller vouches for the faces, as for
    /// from_closed. False if `s` was present.
    bool add_with_faces_present(const Simplex& s);

    bool contains(const Simplex& s) const { return simplices_.contains(s); }
    bool contains_vertex(VertexId v) const { return contains(Simplex{v}); }

    bool is_empty() const noexcept { return simplices_.empty(); }

    /// Number of simplices (all dimensions).
    std::size_t size() const noexcept { return simplices_.size(); }

    /// All simplices, in no meaningful order.
    const SimplexSet& simplices() const noexcept { return simplices_; }

    /// All simplices of dimension d, sorted for determinism.
    std::vector<Simplex> simplices_of_dimension(int d) const;

    /// The maximal simplices, sorted for determinism.
    std::vector<Simplex> facets() const;

    /// Vertex ids present in the complex, sorted.
    std::vector<VertexId> vertex_ids() const;

    /// Largest simplex dimension; -1 for the empty complex.
    int dimension() const;

    /// Is every simplex a face of a simplex of dimension n (and none larger)?
    /// (Paper: "pure of dimension n".)
    bool is_pure(int n) const;

    /// Pure of its own (maximal) dimension.
    bool is_pure() const { return is_empty() || is_pure(dimension()); }

    /// Subcomplex of simplices of dimension <= k ("k-skeleton").
    SimplicialComplex skeleton(int k) const;

    /// Open star of s: all simplices having s as a face. Not a complex.
    std::vector<Simplex> open_star(const Simplex& s) const;

    /// Closed star: smallest subcomplex containing the open star.
    SimplicialComplex closed_star(const Simplex& s) const;

    /// Link of s: closed_star(s) minus open_star(s); equivalently the
    /// simplices t disjoint from s with t ∪ s in the complex.
    SimplicialComplex link(const Simplex& s) const;

    bool is_subcomplex_of(const SimplicialComplex& other) const;

    /// Euler characteristic: sum over d of (-1)^d (#d-simplices).
    long long euler_characteristic() const;

    /// Connected components of the 1-skeleton (isolated vertices count).
    std::size_t num_connected_components() const;

    /// True iff non-empty and a single connected component.
    bool is_connected() const {
        return !is_empty() && num_connected_components() == 1;
    }

    friend bool operator==(const SimplicialComplex& a,
                           const SimplicialComplex& b) {
        return a.simplices_ == b.simplices_;
    }

private:
    SimplexSet simplices_;
};

}  // namespace gact::topo
