#include "core/protocol_to_map.h"

#include "util/require.h"

namespace gact::core {

iis::ViewId view_of_vertex(iis::SubdivisionChain& chain,
                           iis::ViewArena& arena, std::size_t k,
                           VertexId vertex) {
    const topo::SubdividedComplex& level = chain.level(k);
    if (k == 0) {
        return arena.make_initial(level.complex().color(vertex));
    }
    const topo::SubdividedComplex::Provenance& prov = level.provenance(vertex);
    std::vector<iis::ViewId> seen;
    seen.reserve(prov.parent_simplex.size());
    for (VertexId w : prov.parent_simplex.vertices()) {
        seen.push_back(view_of_vertex(chain, arena, k - 1, w));
    }
    return arena.make_view(level.complex().color(vertex), seen);
}

EtaExtraction extract_eta(const protocol::Protocol& protocol,
                          iis::SubdivisionChain& chain,
                          iis::ViewArena& arena, std::size_t k) {
    EtaExtraction out;
    const topo::SubdividedComplex& level = chain.level(k);
    for (VertexId v : level.complex().vertex_ids()) {
        const iis::ViewId view = view_of_vertex(chain, arena, k, v);
        const auto decided = protocol.output(view, arena);
        if (decided.has_value()) {
            out.eta.set(v, *decided);
        } else {
            out.undecided.push_back(v);
        }
    }
    return out;
}

}  // namespace gact::core
