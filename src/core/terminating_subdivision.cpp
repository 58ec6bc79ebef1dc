#include "core/terminating_subdivision.h"

#include <unordered_map>

#include "exec/for_index.h"
#include "util/require.h"

namespace gact::core {

TerminatingSubdivision::TerminatingSubdivision(const ChromaticComplex& base)
    : base_(base) {
    Stage s;
    s.complex = SubdividedComplex::identity(base);
    stages_.push_back(std::move(s));
}

VertexId TerminatingSubdivision::global_id(
    const SubdividedComplex& stage_complex, VertexId v) {
    const BaryPoint& pos = stage_complex.position(v);
    const Color color = stage_complex.complex().color(v);
    const auto next = static_cast<VertexId>(global_position_.size());
    const VertexId id = global_index_.find_or_insert(
        topo::position_key_hash(pos, color), next, [&](VertexId w) {
            return global_position_[w] == pos && global_color_.at(w) == color;
        });
    if (id == next) {
        global_position_.push_back(pos);
        global_color_[id] = color;
    }
    return id;
}

void TerminatingSubdivision::advance(
    const std::function<bool(const SubdividedComplex&, const Simplex&)>&
        stabilize,
    unsigned num_threads) {
    require(!stages_.empty(),
            "TerminatingSubdivision: advance on an empty placeholder");
    Stage& current = stages_.back();
    const SubdividedComplex& cx = current.complex;

    // Collect Sigma_k: previously stable simplices persist; new ones come
    // from the predicate. Closure under faces is enforced by construction
    // (SimplicialComplex::add_simplex adds all faces). The predicate scan
    // is per-facet work over immutable state, so it shards as
    // index-slotted tasks on the resident scheduler; the selected faces
    // are merged in facet order, and since the stable set is a *set*,
    // the merged result is identical to the sequential scan's.
    const std::vector<Simplex>& facets = cx.facets();
    std::vector<std::vector<Simplex>> selected(facets.size());
    exec::for_index(
        exec::Scheduler::shared(), facets.size(), num_threads,
        [&](std::size_t fi) {
            for (const Simplex& s : facets[fi].faces()) {
                if (current.stable.contains(s)) continue;
                if (stabilize(cx, s)) selected[fi].push_back(s);
            }
        });
    std::vector<Simplex> newly_stable;
    for (const std::vector<Simplex>& faces : selected) {
        for (const Simplex& s : faces) {
            if (current.stable.contains(s)) continue;
            current.stable.add_simplex(s);
            newly_stable.push_back(s);
        }
    }

    // Record the newly stable simplices into the global complex, stamping
    // first-stabilization stages (faces stabilize with their cofaces).
    // Only the simplices selected THIS stage need recording: everything
    // else in current.stable is either a face of one of them (covered by
    // the faces loop below) or the persisted image of a simplex that
    // was recorded — under the same position/color global ids — at an
    // earlier stage, where stable_since_ already holds its first
    // stabilization stage (try_emplace keeps the first stamp).
    const std::size_t stage = stages_.size() - 1;
    // global_id resolves through the exact-rational position index;
    // memoize per stage so each stage vertex pays for one probe however
    // many stable simplices share it.
    std::unordered_map<VertexId, VertexId> global_of;
    const auto global_id_memo = [&](VertexId v) {
        const auto it = global_of.find(v);
        if (it != global_of.end()) return it->second;
        const VertexId id = global_id(cx, v);
        global_of.emplace(v, id);
        return id;
    };
    std::vector<VertexId> verts;
    for (const Simplex& s : newly_stable) {
        verts.clear();
        for (VertexId v : s.vertices()) verts.push_back(global_id_memo(v));
        const Simplex global(verts);
        for (Simplex& face : global.faces()) {
            stable_since_.try_emplace(std::move(face), stage);
        }
        stable_simplices_.add_simplex(global);
    }
    stable_stale_ = true;

    // Build C_{k+1}: partial chromatic subdivision terminating Sigma_k.
    const SimplicialComplex& sigma = current.stable;
    Stage next;
    next.complex = cx.chromatic_subdivision_with_termination(
        [&sigma](const Simplex& t) { return sigma.contains(t); },
        num_threads);

    // Sigma_k persists in C_{k+1}: terminated simplices survive with new
    // vertex ids (matched by position + color). The per-vertex lookup
    // goes through the exact-rational position index, so memoize it:
    // stable simplices share vertices heavily and hashing the exact
    // position is the expensive part of this check.
    std::unordered_map<VertexId, VertexId> vertex_image;
    std::vector<Simplex> images;
    images.reserve(sigma.simplices().size());
    for (const Simplex& s : sigma.simplices()) {
        verts.clear();
        for (VertexId v : s.vertices()) {
            const auto memo = vertex_image.find(v);
            if (memo != vertex_image.end()) {
                verts.push_back(memo->second);
                continue;
            }
            const auto nv = next.complex.find_vertex(
                cx.position(v), cx.complex().color(v));
            ensure(nv.has_value(),
                   "TerminatingSubdivision: stable vertex vanished");
            vertex_image.emplace(v, *nv);
            verts.push_back(*nv);
        }
        Simplex image(verts);
        ensure(next.complex.complex().contains(image),
               "TerminatingSubdivision: stable simplex not preserved");
        images.push_back(std::move(image));
    }
    // Sigma_k is closed under faces and the vertexwise image of a closed
    // set is closed, so the images need no per-simplex face enumeration.
    next.stable = SimplicialComplex::from_closed(std::move(images));
    stages_.push_back(std::move(next));
}

const ChromaticComplex& TerminatingSubdivision::stable_complex() const {
    if (stable_stale_) {
        // Trusted: global simplices are color-preserving images of
        // properly colored stage simplices, so the coloring stays proper.
        stable_ = ChromaticComplex::trusted(stable_simplices_, global_color_);
        stable_stale_ = false;
    }
    return stable_;
}

const SubdividedComplex& TerminatingSubdivision::complex_at(
    std::size_t k) const {
    require(k < stages_.size(), "TerminatingSubdivision: stage not built");
    return stages_[k].complex;
}

const SimplicialComplex& TerminatingSubdivision::stable_at(
    std::size_t k) const {
    require(k < stages_.size(), "TerminatingSubdivision: stage not built");
    return stages_[k].stable;
}

const BaryPoint& TerminatingSubdivision::stable_position(
    VertexId global_vertex) const {
    require(global_vertex < global_position_.size(),
            "TerminatingSubdivision: unknown global vertex");
    return global_position_[global_vertex];
}

Simplex TerminatingSubdivision::stable_carrier(
    const Simplex& global_simplex) const {
    Simplex out;
    for (VertexId v : global_simplex.vertices()) {
        out = out.union_with(stable_position(v).support());
    }
    return out;
}

std::vector<BaryPoint> TerminatingSubdivision::stable_positions_of(
    const Simplex& s) const {
    std::vector<BaryPoint> out;
    out.reserve(s.size());
    for (VertexId v : s.vertices()) out.push_back(stable_position(v));
    return out;
}

std::size_t TerminatingSubdivision::stable_since(
    const Simplex& global_simplex) const {
    const auto it = stable_since_.find(global_simplex);
    require(it != stable_since_.end(),
            "TerminatingSubdivision: simplex is not stable");
    return it->second;
}

std::optional<VertexId> TerminatingSubdivision::find_stable_vertex(
    const BaryPoint& position, Color color) const {
    return global_index_.find(
        topo::position_key_hash(position, color), [&](VertexId w) {
            return global_position_[w] == position &&
                   global_color_.at(w) == color;
        });
}

bool TerminatingSubdivision::stable_simplex_contains(
    const Simplex& tau, const std::vector<BaryPoint>& points) const {
    const std::vector<BaryPoint> vertices = stable_positions_of(tau);
    for (const BaryPoint& p : points) {
        if (!topo::point_in_simplex(p, vertices)) return false;
    }
    return true;
}

}  // namespace gact::core
