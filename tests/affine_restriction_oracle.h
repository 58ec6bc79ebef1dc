// The per-face scan that built each Delta(t) of an affine task before
// make_affine_task filed L's simplices under their carriers once: every
// simplex of L whose carrier lies in the face t, found by a scan of all
// of L per face. Kept as the oracle for the grouped build.
#pragma once

#include "tasks/affine_task.h"

namespace gact::tasks {

/// L ∩ Chr^k t by a full scan of L.
inline SimplicialComplex reference_affine_restriction(
    const topo::SubdividedComplex& chr_k, const SimplicialComplex& l_complex,
    const Simplex& face) {
    SimplicialComplex out;
    for (const Simplex& s : l_complex.simplices()) {
        if (chr_k.carrier_of(s).is_face_of(face)) out.add_simplex(s);
    }
    return out;
}

}  // namespace gact::tasks
