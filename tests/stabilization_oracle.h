// The stabilization pass TerminatingSubdivision::advance ran before its
// one-pass design, kept as an oracle for the terminating-subdivision
// tests: a scan that asks the rule about every (facet, face) pair, a
// merge that inserts every selected simplex together with all its faces,
// and a record that interns every face of every new simplex into K(T).
//
// ReferenceStabilization replays that pass beside a real subdivision:
// call step() with the rule just before each advance() of the
// subdivision, then expect_matches_reference() to compare every Sigma_k
// (contents and slot order), the global vertex order, the order of
// K(T)'s simplices and their stable_since stamps.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/terminating_subdivision.h"
#include "topology/vertex_table.h"

namespace gact::core {

using StabilizeFn =
    std::function<bool(const SubdividedComplex&, const Simplex&)>;

class ReferenceStabilization {
public:
    /// Stabilize the last stage of `t` (building it if deferred) as the
    /// former advance() did, from the Sigma_{k-1} carried into it, and
    /// record the new simplices into this reference's K(T).
    void step(const TerminatingSubdivision& t, const StabilizeFn& rule) {
        const std::size_t k = t.stages() - 1;
        const SubdividedComplex& cx = t.complex_at(k);
        SimplicialComplex stable = t.stable_at(k);

        std::vector<Simplex> selected;
        std::vector<Simplex> faces;
        for (const Simplex& facet : cx.facets()) {
            facet.faces_into(faces);
            for (const Simplex& s : faces) {
                if (stable.contains(s)) continue;
                if (rule(cx, s)) selected.push_back(s);
            }
        }
        std::vector<Simplex> newly_stable;
        for (const Simplex& s : selected) {
            if (stable.contains(s)) continue;
            stable.add_simplex(s);
            newly_stable.push_back(s);
        }

        std::vector<VertexId> verts;
        for (const Simplex& s : newly_stable) {
            verts.clear();
            for (VertexId v : s.vertices()) verts.push_back(global_id(cx, v));
            for (Simplex& face : Simplex(verts).faces()) {
                if (index_.try_emplace(face, simplices_.size()).second) {
                    simplices_.push_back(std::move(face));
                    since_.push_back(k);
                }
            }
        }
        sigma_.push_back(std::move(stable));
    }

    const std::vector<SimplicialComplex>& sigma() const { return sigma_; }
    const std::vector<topo::BaryPoint>& positions() const {
        return positions_;
    }
    const std::vector<topo::Color>& colors() const { return colors_; }
    const std::vector<Simplex>& simplices() const { return simplices_; }
    const std::vector<std::size_t>& since() const { return since_; }

private:
    VertexId global_id(const SubdividedComplex& cx, VertexId v) {
        const topo::BaryPoint& pos = cx.position(v);
        const topo::Color color = cx.complex().color(v);
        std::vector<VertexId>& bucket =
            by_key_hash_[topo::position_key_hash(pos, color)];
        for (VertexId w : bucket) {
            if (positions_[w] == pos && colors_[w] == color) return w;
        }
        const auto id = static_cast<VertexId>(positions_.size());
        positions_.push_back(pos);
        colors_.push_back(color);
        bucket.push_back(id);
        return id;
    }

    std::vector<SimplicialComplex> sigma_;
    std::unordered_map<std::size_t, std::vector<VertexId>> by_key_hash_;
    std::vector<topo::BaryPoint> positions_;
    std::vector<topo::Color> colors_;
    std::unordered_map<Simplex, std::size_t> index_;
    std::vector<Simplex> simplices_;
    std::vector<std::size_t> since_;
};

/// The number of slots at which two simplex sets differ, counting every
/// slot of the larger table when their slot counts differ.
inline std::size_t slot_mismatches(const topo::SimplexSet& a,
                                   const topo::SimplexSet& b) {
    if (a.slot_count() != b.slot_count()) {
        return std::max(a.slot_count(), b.slot_count());
    }
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < a.slot_count(); ++i) {
        if (!(a.slot(i) == b.slot(i))) ++mismatches;
    }
    return mismatches;
}

/// Does `t`, advanced once after each ref.step(), hold exactly what the
/// reference built: each Sigma_k slot for slot, the global vertices in
/// order, K(T) slot for slot against from_closed over the reference
/// list, and every stamp?
inline void expect_matches_reference(const TerminatingSubdivision& t,
                                     const ReferenceStabilization& ref) {
    ASSERT_EQ(ref.sigma().size() + 1, t.stages());
    for (std::size_t k = 0; k < ref.sigma().size(); ++k) {
        EXPECT_EQ(t.stable_at(k), ref.sigma()[k]) << "stage " << k;
        EXPECT_EQ(slot_mismatches(t.stable_at(k).simplices(),
                                  ref.sigma()[k].simplices()),
                  0u)
            << "stage " << k;
    }

    const topo::ChromaticComplex& k_of_t = t.stable_complex();
    EXPECT_EQ(k_of_t.vertex_ids().size(), ref.positions().size());
    std::size_t vertex_mismatches = 0;
    for (std::size_t i = 0; i < ref.positions().size(); ++i) {
        const auto v = static_cast<VertexId>(i);
        if (!(t.stable_position(v) == ref.positions()[i]) ||
            k_of_t.color(v) != ref.colors()[i]) {
            ++vertex_mismatches;
        }
    }
    EXPECT_EQ(vertex_mismatches, 0u);

    EXPECT_EQ(slot_mismatches(
                  k_of_t.complex().simplices(),
                  SimplicialComplex::from_closed(ref.simplices()).simplices()),
              0u);
    std::size_t stamp_mismatches = 0;
    for (std::size_t i = 0; i < ref.simplices().size(); ++i) {
        if (t.stable_since(ref.simplices()[i]) != ref.since()[i]) {
            ++stamp_mismatches;
        }
    }
    EXPECT_EQ(stamp_mismatches, 0u);
}

}  // namespace gact::core
