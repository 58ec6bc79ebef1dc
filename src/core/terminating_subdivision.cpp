#include "core/terminating_subdivision.h"

#include <algorithm>
#include <cstdint>
#include <string>

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
    const topo::SimplexSet& table = cx.complex().complex().simplices();
    require(table.slot_count() <= UINT32_MAX,
            "TerminatingSubdivision: stage complex too large");

    // Scan: each face of each facet is stable already, selected by the
    // rule, or neither. Faces are enumerated by vertex mask, so the
    // codimension-1 faces of a face are smaller sub-masks whose status is
    // known: a face is probed in Sigma_k only when they are all stable
    // (Sigma_k is closed under faces), and a selected face with one that
    // is neither breaks the closure contract. Chunks of facets shard on
    // the resident scheduler, each listing the C_k slots of its selected
    // faces in facet order.
    enum : std::uint8_t { kNeither, kStable, kSelected };
    const std::vector<Simplex>& facets = cx.facets();
    constexpr std::size_t kChunk = 64;
    const std::size_t chunks = (facets.size() + kChunk - 1) / kChunk;
    std::vector<std::vector<std::uint32_t>> selected(chunks);
    exec::for_index(
        exec::Scheduler::shared(), chunks, num_threads,
        [&](std::size_t ci) {
            std::vector<Simplex> faces;
            std::vector<std::uint8_t> status;
            const std::size_t end =
                std::min(facets.size(), (ci + 1) * kChunk);
            for (std::size_t fi = ci * kChunk; fi < end; ++fi) {
                facets[fi].faces_into(faces);  // faces[mask - 1]
                status.assign(faces.size() + 1, kNeither);
                for (std::size_t mask = 1; mask <= faces.size(); ++mask) {
                    const Simplex& s = faces[mask - 1];
                    bool faces_stable = true;
                    std::size_t breach = 0;  // a sub-mask that is neither
                    for (std::size_t bit = 1; bit < mask; bit <<= 1) {
                        if ((mask & bit) == 0) continue;
                        const std::uint8_t sub = status[mask & ~bit];
                        faces_stable = faces_stable && sub == kStable;
                        if (sub == kNeither) breach = mask & ~bit;
                    }
                    if (faces_stable && current.stable.contains(s)) {
                        status[mask] = kStable;
                    } else if (stabilize(cx, s)) {
                        if (breach != 0) {
                            throw precondition_error(
                                "TerminatingSubdivision: the rule selects " +
                                s.to_string() + " but not its face " +
                                faces[breach - 1].to_string() +
                                "; stable simplices must be closed under "
                                "faces");
                        }
                        status[mask] = kSelected;
                        selected[ci].push_back(
                            static_cast<std::uint32_t>(table.find(s)));
                    }
                }
            }
        });

    // Merge: the first occurrence of each slot, in chunk order. A face's
    // first occurrence precedes its cofaces' (it is a smaller mask of
    // every facet holding them), so each new simplex finds its faces in
    // Sigma_k already and goes in alone.
    std::vector<std::uint8_t> seen(table.slot_count(), 0);
    std::vector<Simplex> fresh;
    for (const std::vector<std::uint32_t>& slots : selected) {
        for (const std::uint32_t slot : slots) {
            if (seen[slot] != 0) continue;
            seen[slot] = 1;
            fresh.push_back(table.slot(slot));
        }
    }
    for (const Simplex& s : fresh) {
        ensure(current.stable.add_with_faces_present(s),
               "TerminatingSubdivision: a selected simplex was stable");
    }

    // Record the new simplices into K(T), stamped with this stage. Their
    // faces are recorded already: each is new this stage and earlier in
    // `fresh`, or the persisted image, under the same position/color
    // global ids, of a simplex recorded at an earlier stage.
    // global_id resolves through the exact-rational position index;
    // memoize per stage vertex so each pays for one probe however many
    // stable simplices share it. Every simplex is mapped to global ids
    // before any is probed in stable_index_: interleaving the two loops
    // made this record ~1.5x slower on lt-3-2-res2's last stage.
    std::vector<VertexId> global_of(cx.vertex_id_bound(), kUnset);
    std::vector<VertexId> verts;
    std::vector<Simplex> globals;
    std::vector<std::size_t> hashes;
    globals.reserve(fresh.size());
    hashes.reserve(fresh.size());
    for (const Simplex& s : fresh) {
        verts.clear();
        for (VertexId v : s.vertices()) {
            if (global_of[v] == kUnset) global_of[v] = global_id(cx, v);
            verts.push_back(global_of[v]);
        }
        globals.emplace_back(verts);
        hashes.push_back(std::hash<Simplex>{}(globals.back()));
    }
    const auto stage = static_cast<std::uint32_t>(stages_.size() - 1);
    const std::size_t recorded = stable_simplices_.size() + globals.size();
    stable_simplices_.reserve(recorded);
    stable_since_.reserve(recorded);
    stable_index_.reserve(recorded);
    for (std::size_t i = 0; i < globals.size(); ++i) {
        const auto next = static_cast<VertexId>(stable_simplices_.size());
        const VertexId id = stable_index_.find_or_insert(
            hashes[i], next,
            [&](VertexId w) { return stable_simplices_[w] == globals[i]; });
        if (id == next) {
            stable_simplices_.push_back(std::move(globals[i]));
            stable_since_.push_back(stage);
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
