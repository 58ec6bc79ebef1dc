#include "topology/carrier_map.h"

namespace gact::topo {

void CarrierMap::set(const Simplex& sigma, SimplicialComplex image) {
    require(!sigma.empty(), "CarrierMap: cannot define image of empty simplex");
    images_[sigma] = std::move(image);
}

const SimplicialComplex& CarrierMap::at(const Simplex& sigma) const {
    const auto it = images_.find(sigma);
    if (it == images_.end()) {
        throw precondition_error("CarrierMap: undefined at " +
                                 sigma.to_string());
    }
    return it->second;
}

bool CarrierMap::allows(const Simplex& sigma, const Simplex& candidate) const {
    if (candidate.empty()) return true;
    return at(sigma).contains(candidate);
}

std::string CarrierMap::validate(const ChromaticComplex& domain,
                                 const ChromaticComplex& codomain) const {
    for (const Simplex& sigma : domain.complex().simplices()) {
        const auto it = images_.find(sigma);
        if (it == images_.end()) {
            return "carrier map undefined at " + sigma.to_string();
        }
        const SimplicialComplex& image = it->second;
        if (!image.is_subcomplex_of(codomain.complex())) {
            return "image of " + sigma.to_string() + " not in codomain";
        }
        if (!image.is_empty()) {
            // Pure of dimension dim(sigma), with exactly sigma's colors on
            // the facets (chi(sigma) = chi(Delta(sigma)) facet-wise).
            if (!image.is_pure(sigma.dimension())) {
                return "image of " + sigma.to_string() + " not pure of dim " +
                       std::to_string(sigma.dimension());
            }
            const ProcessSet colors = domain.colors_of(sigma);
            for (const Simplex& f : image.facets()) {
                if (!(codomain.colors_of(f) == colors)) {
                    return "image facet " + f.to_string() + " of " +
                           sigma.to_string() + " has wrong colors";
                }
            }
        }
        // Monotonicity/intersection: Delta(sigma ∩ tau) ⊆ Delta(sigma) ∩
        // Delta(tau). Face-monotonicity is the binding case; full pairwise
        // intersection follows from it when the domain is a complex, and we
        // check faces exhaustively.
        for (const Simplex& face : sigma.faces()) {
            if (face == sigma) continue;
            const auto fit = images_.find(face);
            if (fit == images_.end()) {
                return "carrier map undefined at face " + face.to_string();
            }
            if (!fit->second.is_subcomplex_of(image)) {
                return "carrier map not monotone: Delta(" + face.to_string() +
                       ") is not inside Delta(" + sigma.to_string() + ")";
            }
        }
    }
    return "";
}

}  // namespace gact::topo
