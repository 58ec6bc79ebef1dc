#include "tasks/affine_task.h"

#include <algorithm>
#include <cstdint>

#include "util/require.h"

namespace gact::tasks {

namespace {

/// Is the complex spanned by `facets` (its maximal simplices) pure of
/// dimension d?
bool pure_of_dimension(const std::vector<Simplex>& facets, int d) {
    return std::ranges::all_of(
        facets, [d](const Simplex& f) { return f.dimension() == d; });
}

}  // namespace

AffineTask make_affine_task(std::string name, topo::SubdividedComplex chr_k,
                            SimplicialComplex l_complex) {
    const topo::ChromaticComplex& chr = chr_k.complex();
    const std::vector<Simplex> base_facets = chr_k.base().facets();
    require(base_facets.size() == 1,
            "make_affine_task: the base complex is not a single simplex s");
    const Simplex& s = base_facets.front();
    const int n = s.dimension();
    require(l_complex.is_subcomplex_of(chr.complex()),
            "make_affine_task: L is not a subcomplex of Chr^k s");
    const std::vector<Simplex> l_facets = l_complex.facets();
    require(pure_of_dimension(l_facets, n),
            "make_affine_task: L is not pure of dimension n");

    AffineTask out;
    out.task.name = std::move(name);
    out.task.num_processes = static_cast<std::uint32_t>(n) + 1;
    out.task.inputs = chr_k.base();
    std::unordered_map<topo::VertexId, topo::Color> colors;
    for (topo::VertexId v : l_complex.vertex_ids()) colors[v] = chr.color(v);
    out.task.outputs = topo::ChromaticComplex::trusted(l_complex, std::move(colors));

    // Carriers as bitmasks over the vertices of s (bit i: s's i-th
    // vertex). Each simplex of L is filed once under its carrier; L is
    // closed and a face's carrier is a face of the simplex's, so the
    // groups filed under the faces of t together form the closed
    // complex L ∩ Chr^k t.
    const auto face_mask = [&s](const Simplex& face) {
        std::uint32_t mask = 0;
        for (topo::VertexId u : face.vertices()) {
            mask |= std::uint32_t{1}
                    << (std::ranges::lower_bound(s.vertices(), u) -
                        s.vertices().begin());
        }
        return mask;
    };
    std::vector<std::uint32_t> vertex_mask(chr_k.vertex_id_bound());
    for (topo::VertexId v : l_complex.vertex_ids()) {
        vertex_mask[v] = face_mask(chr_k.carrier(v));
    }
    std::vector<std::vector<Simplex>> by_carrier(std::size_t{1} << s.size());
    for (const Simplex& sigma : l_complex.simplices()) {
        std::uint32_t mask = 0;
        for (topo::VertexId v : sigma.vertices()) mask |= vertex_mask[v];
        by_carrier[mask].push_back(sigma);
    }

    // Delta(t) for every face t: pure of dimension dim(t) when nonempty
    // (Section 4.2), with t's colors on every facet (Section 4.1).
    for (const Simplex& t : chr_k.base().complex().simplices()) {
        const std::uint32_t t_mask = face_mask(t);
        std::vector<Simplex> simplices;
        for (std::uint32_t m = t_mask; m != 0; m = (m - 1) & t_mask) {
            simplices.insert(simplices.end(), by_carrier[m].begin(),
                             by_carrier[m].end());
        }
        SimplicialComplex image =
            SimplicialComplex::from_closed(std::move(simplices));
        if (!image.is_empty()) {
            // Delta(s) is all of L, whose facets are known already.
            const std::vector<Simplex> facets =
                image.size() == l_complex.size() ? l_facets : image.facets();
            if (!pure_of_dimension(facets, t.dimension())) {
                throw precondition_error(
                    "make_affine_task: L ∩ Chr^k " + t.to_string() +
                    " is not pure of dimension " +
                    std::to_string(t.dimension()));
            }
            const ProcessSet t_colors = out.task.inputs.colors_of(t);
            for (const Simplex& f : facets) {
                if (!(chr.colors_of(f) == t_colors)) {
                    throw invariant_error(
                        "make_affine_task: invalid task: delta: image facet " +
                        f.to_string() + " of " + t.to_string() +
                        " has wrong colors");
                }
            }
        }
        out.task.delta.set(t, std::move(image));
    }

    // The rest of Task::validate: monotone under faces, and colors
    // {0..n} on both sides.
    for (const Simplex& t : chr_k.base().complex().simplices()) {
        const SimplicialComplex& image = out.task.delta.at(t);
        for (const Simplex& face : t.faces()) {
            if (face != t &&
                !out.task.delta.at(face).is_subcomplex_of(image)) {
                throw invariant_error(
                    "make_affine_task: invalid task: delta: carrier map not "
                    "monotone: Delta(" +
                    face.to_string() + ") is not inside Delta(" +
                    t.to_string() + ")");
            }
        }
    }
    const ProcessSet all = ProcessSet::full(out.task.num_processes);
    ensure(out.task.inputs.all_colors() == all,
           "make_affine_task: invalid task: input colors are not {0..n}");
    ensure(out.task.outputs.all_colors() == all,
           "make_affine_task: invalid task: output colors are not {0..n}");

    out.subdivision = std::move(chr_k);
    out.l_complex = std::move(l_complex);
    return out;
}

}  // namespace gact::tasks
