// The map-based stable_since stamping that TerminatingSubdivision kept
// before its flat bookkeeping, rebuilt from public stage data as an
// oracle for the terminating-subdivision tests.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "core/terminating_subdivision.h"

namespace gact::core {

/// Every K(T) simplex stamped with the first stage k whose Sigma_k holds
/// it: each Sigma_k simplex is mapped to global ids by position and
/// color, and try_emplace keeps the first stamp.
inline std::unordered_map<Simplex, std::size_t> map_stamps(
    const TerminatingSubdivision& t) {
    std::unordered_map<Simplex, std::size_t> since;
    std::vector<VertexId> verts;
    for (std::size_t k = 0; k < t.stages(); ++k) {
        const SubdividedComplex& cx = t.complex_at(k);
        for (const Simplex& s : t.stable_at(k).simplices()) {
            verts.clear();
            for (VertexId v : s.vertices()) {
                const auto global = t.find_stable_vertex(
                    cx.position(v), cx.complex().color(v));
                EXPECT_TRUE(global.has_value()) << "stage " << k;
                if (!global.has_value()) return {};
                verts.push_back(*global);
            }
            since.try_emplace(Simplex(verts), k);
        }
    }
    return since;
}

/// Does `t.stable_since` agree with the map oracle on every K(T)
/// simplex, and does the oracle stamp nothing else?
inline void expect_stamps_match_map_oracle(const TerminatingSubdivision& t) {
    const std::unordered_map<Simplex, std::size_t> oracle = map_stamps(t);
    const SimplicialComplex& k_of_t = t.stable_complex().complex();
    EXPECT_EQ(oracle.size(), k_of_t.size());
    std::size_t mismatches = 0;
    for (const Simplex& s : k_of_t.simplices()) {
        const auto it = oracle.find(s);
        if (it == oracle.end() || t.stable_since(s) != it->second) {
            ++mismatches;
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

}  // namespace gact::core
