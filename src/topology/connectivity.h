// Link-connectedness (paper, Definition 8.3, after [HS99, Def. 4.14]).
//
// A pure n-dimensional complex B is link-connected if for every simplex
// sigma of B the link of sigma in B is (n - dim(sigma) - 2)-connected.
// This is the hypothesis under which chromatic simplicial approximation
// (Theorem 8.4) applies; the paper notes that the output complex of the
// total-order task is NOT link-connected while the L_t complexes are.
#pragma once

#include <optional>
#include <string>

#include "topology/chromatic_complex.h"

namespace gact::topo {

/// Result of a link-connectedness check.
struct LinkConnectivityReport {
    bool link_connected = false;
    /// When not link-connected: a witness simplex whose link fails, and the
    /// connectivity level that was required of it.
    std::optional<Simplex> witness;
    int required_connectivity = 0;
    std::string to_string() const;
};

/// Check Definition 8.3 on a pure n-dimensional complex. The simplices
/// are visited in table order, and the first whose link fails is the
/// witness. Each link is read off a vertex -> star incidence built once,
/// from the smallest star among the simplex's vertices; the homology of
/// the links (is_k_connected) is most of the cost.
LinkConnectivityReport check_link_connected(const SimplicialComplex& complex);

inline bool is_link_connected(const SimplicialComplex& complex) {
    return check_link_connected(complex).link_connected;
}

}  // namespace gact::topo
