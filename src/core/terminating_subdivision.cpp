#include "core/terminating_subdivision.h"

#include <algorithm>

#include "exec/for_index.h"
#include "util/require.h"

namespace gact::core {

namespace {

constexpr VertexId kUnset = ~VertexId{0};

}  // namespace

TerminatingSubdivision::TerminatingSubdivision(const ChromaticComplex& base)
    : base_(base) {
    auto s = std::make_unique<Stage>();
    s->complex = SubdividedComplex::identity(base);
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
    if (pending_) {
        materialize();
        stages_.push_back(std::move(pending_->stage));
        pending_.reset();
    }
    Stage& current = *stages_.back();
    const SubdividedComplex& cx = current.complex;

    // Collect Sigma_k: previously stable simplices persist; new ones come
    // from the predicate. Closure under faces is enforced by construction
    // (SimplicialComplex::add_simplex adds all faces). The predicate scan
    // is work over immutable state, so it shards as index-slotted chunks
    // of facets on the resident scheduler, each reusing one face buffer;
    // the selected faces are merged in facet order, and since the stable
    // set is a *set*, the merged result is identical to the sequential
    // scan's.
    const std::vector<Simplex>& facets = cx.facets();
    constexpr std::size_t kChunk = 64;
    const std::size_t chunks = (facets.size() + kChunk - 1) / kChunk;
    std::vector<std::vector<Simplex>> selected(chunks);
    exec::for_index(
        exec::Scheduler::shared(), chunks, num_threads,
        [&](std::size_t ci) {
            std::vector<Simplex> faces;
            const std::size_t end =
                std::min(facets.size(), (ci + 1) * kChunk);
            for (std::size_t fi = ci * kChunk; fi < end; ++fi) {
                facets[fi].faces_into(faces);
                for (const Simplex& s : faces) {
                    if (current.stable.contains(s)) continue;
                    if (stabilize(cx, s)) selected[ci].push_back(s);
                }
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

    // Record the newly stable simplices into K(T), stamping each global
    // simplex once, when it is first inserted (faces stabilize with their
    // cofaces). Only the simplices selected THIS stage need recording:
    // everything else in current.stable is either a face of one of them
    // or the persisted image of a simplex that was recorded, under the
    // same position/color global ids, at an earlier stage with its
    // first stabilization stage.
    const auto stage = static_cast<std::uint32_t>(stages_.size() - 1);
    // global_id resolves through the exact-rational position index;
    // memoize per stage vertex so each pays for one probe however many
    // stable simplices share it.
    std::vector<VertexId> global_of(cx.vertex_id_bound(), kUnset);
    std::vector<VertexId> verts;
    for (const Simplex& s : newly_stable) {
        verts.clear();
        for (VertexId v : s.vertices()) {
            if (global_of[v] == kUnset) global_of[v] = global_id(cx, v);
            verts.push_back(global_of[v]);
        }
        for (Simplex& face : Simplex(verts).faces()) {
            const auto next = static_cast<VertexId>(stable_simplices_.size());
            const VertexId id = stable_index_.find_or_insert(
                std::hash<Simplex>{}(face), next,
                [&](VertexId w) { return stable_simplices_[w] == face; });
            if (id == next) {
                stable_simplices_.push_back(std::move(face));
                stable_since_.push_back(stage);
            }
        }
    }
    stable_stale_ = true;

    // C_{k+1} adds nothing to K(T): defer it to its first reader.
    pending_ = std::make_unique<Pending>(num_threads);
}

const TerminatingSubdivision::Stage& TerminatingSubdivision::materialize()
    const {
    // Builds into *pending_ (owned through a pointer, so this const
    // method may fill it); call_once makes concurrent first readers
    // wait for the one build.
    std::call_once(pending_->once, [this] {
        const Stage& current = *stages_.back();
        const SubdividedComplex& cx = current.complex;

        // Build C_{k+1}: partial chromatic subdivision terminating
        // Sigma_k.
        const SimplicialComplex& sigma = current.stable;
        auto next = std::make_unique<Stage>();
        next->complex = cx.chromatic_subdivision_with_termination(
            [&sigma](const Simplex& t) { return sigma.contains(t); },
            pending_->num_threads);

        // Sigma_k persists in C_{k+1}: terminated simplices survive with
        // new vertex ids (matched by position + color). The per-vertex
        // lookup goes through the exact-rational position index, so
        // memoize it: stable simplices share vertices heavily and hashing
        // the exact position is the expensive part of this check.
        std::vector<VertexId> vertex_image(cx.vertex_id_bound(), kUnset);
        std::vector<VertexId> verts;
        std::vector<Simplex> images;
        images.reserve(sigma.simplices().size());
        for (const Simplex& s : sigma.simplices()) {
            verts.clear();
            for (VertexId v : s.vertices()) {
                if (vertex_image[v] == kUnset) {
                    const auto nv = next->complex.find_vertex(
                        cx.position(v), cx.complex().color(v));
                    ensure(nv.has_value(),
                           "TerminatingSubdivision: stable vertex vanished");
                    vertex_image[v] = *nv;
                }
                verts.push_back(vertex_image[v]);
            }
            Simplex image(verts);
            ensure(next->complex.complex().contains(image),
                   "TerminatingSubdivision: stable simplex not preserved");
            images.push_back(std::move(image));
        }
        // Sigma_k is closed under faces and the vertexwise image of a
        // closed set is closed, so the images need no per-simplex face
        // enumeration.
        next->stable = SimplicialComplex::from_closed(std::move(images));
        pending_->stage = std::move(next);
    });
    return *pending_->stage;
}

const TerminatingSubdivision::Stage& TerminatingSubdivision::stage_at(
    std::size_t k) const {
    require(k < stages(), "TerminatingSubdivision: no such stage");
    if (k < stages_.size()) return *stages_[k];
    return materialize();
}

const ChromaticComplex& TerminatingSubdivision::stable_complex() const {
    if (stable_stale_) {
        // Trusted: global simplices are color-preserving images of
        // properly colored stage simplices, so the coloring stays proper.
        stable_ = ChromaticComplex::trusted(
            SimplicialComplex::from_closed(stable_simplices_), global_color_);
        stable_stale_ = false;
    }
    return stable_;
}

const SubdividedComplex& TerminatingSubdivision::complex_at(
    std::size_t k) const {
    return stage_at(k).complex;
}

const SimplicialComplex& TerminatingSubdivision::stable_at(
    std::size_t k) const {
    return stage_at(k).stable;
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
    const std::optional<VertexId> id = stable_index_.find(
        std::hash<Simplex>{}(global_simplex), [&](VertexId w) {
            return stable_simplices_[w] == global_simplex;
        });
    require(id.has_value(), "TerminatingSubdivision: simplex is not stable");
    return stable_since_[*id];
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
