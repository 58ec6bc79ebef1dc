#include "topology/subdivision.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "exec/for_index.h"
#include "topology/combinatorics.h"

namespace gact::topo {

namespace {

std::size_t provenance_hash(VertexId p, const Simplex& tau) noexcept {
    std::size_t seed = std::hash<Simplex>{}(tau);
    hash_combine(seed, std::hash<VertexId>{}(p));
    return seed;
}

}  // namespace

SubdividedComplex SubdividedComplex::identity(const ChromaticComplex& base) {
    SubdividedComplex out;
    out.base_ = base;
    out.complex_ = base;
    out.facets_ = base.facets();
    const std::vector<VertexId> verts = base.vertex_ids();
    VertexId max_id = 0;
    for (VertexId v : verts) max_id = std::max(max_id, v);
    out.position_.resize(verts.empty() ? 0 : max_id + 1);
    out.carrier_.resize(out.position_.size());
    for (VertexId v : verts) {
        out.position_[v] = BaryPoint::vertex(v);
        out.carrier_[v] = Simplex{v};
    }
    out.index_positions();
    out.depth_ = 0;
    return out;
}

SubdividedComplex SubdividedComplex::chromatic_subdivision(
    unsigned num_threads) const {
    return subdivide_impl([](const Simplex&) { return false; },
                          num_threads);
}

SubdividedComplex SubdividedComplex::chromatic_subdivision_with_termination(
    const std::function<bool(const Simplex&)>& terminated,
    unsigned num_threads) const {
    return subdivide_impl(terminated, num_threads);
}

SubdividedComplex SubdividedComplex::subdivide_impl(
    const std::function<bool(const Simplex&)>& terminated,
    unsigned num_threads) const {
    SubdividedComplex out;
    out.base_ = base_;
    out.depth_ = depth_ + 1;


    using Key = std::pair<VertexId, Simplex>;

    // Key for a subdivision vertex: the pair (p, tau) with the collapse
    // rule of Section 6.1 applied: a terminated non-singleton tau collapses
    // the pair onto (p, {p}).
    const auto canonical_key = [&](VertexId p, const Simplex& tau) -> Key {
        if (tau.size() > 1 && terminated(tau)) return {p, Simplex{p}};
        return {p, tau};
    };

    // Phase 1 — generate the facets of the (partial) subdivision as
    // canonical-key tuples, one work unit per parent facet: for every
    // ordered partition of the parent's vertices, the simplex of pairs
    // (v, prefix-union up to v's block), collapsed where terminated.
    // Pure reads of immutable state, so the units shard across threads;
    // the partition tables are precomputed once per facet size instead
    // of per facet.
    const std::vector<Simplex>& parents = facets_;
    // Per facet size n: each ordered partition flattened to the sequence
    // of (vertex index, prefix-union bitmask) pairs its keys come from.
    // The pair tables depend only on n, so per parent the keys reduce to
    // table lookups instead of re-deriving prefix simplices per tuple.
    using KeyRef = std::pair<std::uint32_t, std::uint32_t>;
    std::map<std::size_t, std::vector<std::vector<KeyRef>>> pairs_by_size;
    for (const Simplex& parent : parents) {
        const std::size_t n = parent.size();
        if (pairs_by_size.find(n) != pairs_by_size.end()) continue;
        std::vector<std::vector<KeyRef>> pair_parts;
        for (const OrderedIndexPartition& part : ordered_partitions(n)) {
            std::vector<KeyRef> refs;
            refs.reserve(n);
            std::uint32_t mask = 0;
            for (const std::vector<std::size_t>& block : part) {
                for (std::size_t i : block) mask |= std::uint32_t{1} << i;
                for (std::size_t i : block) {
                    refs.emplace_back(static_cast<std::uint32_t>(i), mask);
                }
            }
            pair_parts.push_back(std::move(refs));
        }
        pairs_by_size.emplace(n, std::move(pair_parts));
    }
    // Per parent: the distinct canonical keys in first-occurrence order,
    // plus the facet tuples as indices into that table. A parent of size
    // n has at most n * 2^(n-1) distinct (p, tau) pairs but n * |ordered
    // partitions| key slots, so deduplicating locally — and calling
    // `terminated` once per distinct prefix, not once per slot — is
    // where the per-facet work collapses.
    struct ParentKeys {
        std::vector<Key> table;  // distinct keys, first-occurrence order
        std::vector<std::vector<std::uint32_t>> tuples;  // table indices
    };
    std::vector<ParentKeys> generated(parents.size());
    exec::for_index(exec::Scheduler::shared(), parents.size(), num_threads,
                    [&](std::size_t pi) {
        const std::span<const VertexId> pv = parents[pi].vertices();
        const std::size_t n = pv.size();
        const std::vector<std::vector<KeyRef>>& parts = pairs_by_size.at(n);
        ParentKeys& pk = generated[pi];
        // A terminated parent collapses wholesale: every prefix union tau
        // is a face of the parent, hence terminated (the predicate is
        // face-closed), so every key collapses to (p, {p}) and all
        // partitions produce the same facet — the parent itself. Emit it
        // once, with keys in the first partition's block order, which is
        // exactly the first-occurrence order the full enumeration would
        // have produced: vertex ids, facets, and geometry stay
        // bit-identical while the per-facet work drops from
        // |partitions| tuples to one.
        if (n > 1 && terminated(parents[pi])) {
            std::vector<std::uint32_t> tuple;
            tuple.reserve(n);
            for (const KeyRef& ref : parts.front()) {
                tuple.push_back(static_cast<std::uint32_t>(pk.table.size()));
                pk.table.push_back({pv[ref.first], Simplex{pv[ref.first]}});
            }
            pk.tuples.push_back(std::move(tuple));
            return;
        }
        std::vector<std::int32_t> slot_of(n << n, -1);  // (i, mask) slots
        pk.tuples.reserve(parts.size());
        for (const std::vector<KeyRef>& part : parts) {
            std::vector<std::uint32_t> tuple;
            tuple.reserve(n);
            for (const KeyRef& ref : part) {
                std::int32_t& slot =
                    slot_of[(static_cast<std::size_t>(ref.first) << n) |
                            ref.second];
                if (slot < 0) {
                    Simplex tau;
                    for (std::size_t b = 0; b < n; ++b) {
                        if (ref.second & (std::uint32_t{1} << b)) {
                            tau = tau.with(pv[b]);
                        }
                    }
                    slot = static_cast<std::int32_t>(pk.table.size());
                    pk.table.push_back(canonical_key(pv[ref.first], tau));
                }
                tuple.push_back(static_cast<std::uint32_t>(slot));
            }
            pk.tuples.push_back(std::move(tuple));
        }
    });


    // Phase 2 — intern the keys in (parent, partition, block) order:
    // first-occurrence order, and with it every vertex id, matches the
    // sequential build exactly whatever num_threads was. (A duplicate in
    // a parent's table — two prefixes collapsing onto the same (p, {p})
    // — interns to the already-assigned id, so per-parent deduplication
    // preserves that order.) Geometry is deferred to phase 3 so the
    // exact rational arithmetic also shards.
    std::unordered_map<VertexId, Color> colors;
    std::vector<Simplex> facets;
    const auto intern = [&](const Key& key) -> VertexId {
        const std::size_t known = out.provenance_.size();
        const VertexId id = out.intern_provenance(key.first, key.second);
        if (out.provenance_.size() != known) {
            colors[id] = complex_.color(key.first);
        }
        return id;
    };
    std::vector<VertexId> global_of;
    std::vector<VertexId> verts;
    for (const ParentKeys& pk : generated) {
        global_of.clear();
        global_of.reserve(pk.table.size());
        for (const Key& key : pk.table) global_of.push_back(intern(key));
        for (const std::vector<std::uint32_t>& tuple : pk.tuples) {
            verts.clear();
            for (std::uint32_t ti : tuple) verts.push_back(global_of[ti]);
            facets.emplace_back(verts);
        }
    }


    // Phase 3 — exact positions per Section 3.2, one work unit per new
    // vertex (a singleton tau keeps the parent vertex's position and
    // carrier). The (position, color) index follows once the coloring
    // is in place.
    const std::size_t vertex_count = out.provenance_.size();
    out.position_.resize(vertex_count);
    out.carrier_.resize(vertex_count);
    exec::for_index(exec::Scheduler::shared(), vertex_count, num_threads,
                    [&](std::size_t id) {
        const VertexId p = out.provenance_[id].parent_vertex;
        const Simplex& t = out.provenance_[id].parent_simplex;
        if (t.size() == 1) {
            out.position_[id] = position(p);
            out.carrier_[id] = carrier(p);
            return;
        }
        const auto k = static_cast<std::int64_t>(t.size());
        std::vector<BaryPoint> pts;
        std::vector<Rational> weights;
        pts.push_back(position(p));
        weights.emplace_back(1, 2 * k - 1);
        for (VertexId q : t.vertices()) {
            if (q == p) continue;
            pts.push_back(position(q));
            weights.emplace_back(2, 2 * k - 1);
        }
        out.position_[id] = BaryPoint::combination(pts, weights);
        out.carrier_[id] = out.position_[id].support();
    });

    // The canonical taus of a facet's vertices cover its parent (the last
    // block's tau is the parent itself unless the parent is terminated
    // and emitted alone), and a vertex only occurs under parents that
    // contain its tau. Parents are maximal and a parent's facets all
    // have its size, so no facet is a face of another: the sorted list
    // is exactly the facet list of the new complex.
    std::sort(facets.begin(), facets.end());
    facets.erase(std::unique(facets.begin(), facets.end()), facets.end());

    SimplicialComplex closure =
        SimplicialComplex::from_facets(facets, num_threads);
    // Trusted: the chromatic subdivision colors each new vertex with the
    // color of the original-complex vertex it replaces, facet by facet —
    // proper coloring is structural here.
    out.complex_ =
        ChromaticComplex::trusted(std::move(closure), std::move(colors));
    out.facets_ = std::move(facets);
    out.index_positions();
    return out;
}

SubdividedComplex SubdividedComplex::iterated_chromatic(
    const ChromaticComplex& base, int k) {
    require(k >= 0, "iterated_chromatic: negative depth");
    SubdividedComplex out = identity(base);
    for (int i = 0; i < k; ++i) out = out.chromatic_subdivision();
    return out;
}

SubdividedComplex SubdividedComplex::barycentric_subdivision() const {
    SubdividedComplex out;
    out.base_ = base_;
    out.depth_ = depth_ + 1;

    std::unordered_map<VertexId, Color> colors;
    const auto intern = [&](const Simplex& sigma) -> VertexId {
        const std::size_t known = out.provenance_.size();
        const VertexId id =
            out.intern_provenance(sigma.vertices().front(), sigma);
        if (out.provenance_.size() == known) return id;
        // Barycenter position, expressed in base coordinates.
        std::vector<BaryPoint> pts;
        std::vector<Rational> weights;
        const Rational w(1, static_cast<std::int64_t>(sigma.size()));
        for (VertexId v : sigma.vertices()) {
            pts.push_back(position(v));
            weights.push_back(w);
        }
        out.position_.push_back(BaryPoint::combination(pts, weights));
        out.carrier_.push_back(out.position_.back().support());
        colors[id] = static_cast<Color>(sigma.dimension());
        return id;
    };

    // Facets of Bary(C): flags sigma_0 < sigma_1 < ... < sigma_m of
    // simplices of C with sigma_m a facet.
    std::vector<Simplex> facets;
    for (const Simplex& f : facets_) {
        // Enumerate flags ending at f: permutations of f's vertices define
        // maximal flags; build them from vertex orderings.
        const std::span<const VertexId> pv = f.vertices();
        for (const std::vector<std::size_t>& perm : all_permutations(pv.size())) {
            std::vector<VertexId> verts;
            Simplex prefix;
            for (std::size_t i : perm) {
                prefix = prefix.with(pv[i]);
                verts.push_back(intern(prefix));
            }
            facets.emplace_back(std::move(verts));
        }
    }
    std::sort(facets.begin(), facets.end());
    facets.erase(std::unique(facets.begin(), facets.end()), facets.end());

    // A flag ending at facet f holds f's barycenter, which no flag ending
    // at another facet holds: the sorted list is the facet list.
    out.complex_ = ChromaticComplex(SimplicialComplex::from_facets(facets),
                                    std::move(colors));
    out.facets_ = std::move(facets);
    out.index_positions();
    return out;
}

const BaryPoint& SubdividedComplex::position(VertexId v) const {
    require(v < position_.size(), "SubdividedComplex: unknown vertex");
    return position_[v];
}

const Simplex& SubdividedComplex::carrier(VertexId v) const {
    require(v < carrier_.size(), "SubdividedComplex: unknown vertex");
    return carrier_[v];
}

Simplex SubdividedComplex::carrier_of(const Simplex& s) const {
    Simplex out;
    for (VertexId v : s.vertices()) out = out.union_with(carrier(v));
    return out;
}

std::vector<BaryPoint> SubdividedComplex::positions_of(const Simplex& s) const {
    std::vector<BaryPoint> out;
    out.reserve(s.size());
    for (VertexId v : s.vertices()) out.push_back(position(v));
    return out;
}

const SubdividedComplex::Provenance& SubdividedComplex::provenance(
    VertexId v) const {
    require(depth_ > 0, "SubdividedComplex: no provenance at depth 0");
    require(v < provenance_.size(), "SubdividedComplex: unknown vertex");
    return provenance_[v];
}

VertexId SubdividedComplex::vertex_for(VertexId parent_vertex,
                                       const Simplex& parent_simplex) const {
    require(depth_ > 0, "SubdividedComplex: vertex_for requires depth > 0");
    const auto id = find_provenance(parent_vertex, parent_simplex);
    require(id.has_value(),
            "SubdividedComplex: no vertex for (p, tau); tau may be terminated");
    return *id;
}

std::optional<VertexId> SubdividedComplex::find_vertex(
    const BaryPoint& position, Color color) const {
    return position_index_.find(
        position_key_hash(position, color), [&](VertexId v) {
            return position_[v] == position && complex_.color(v) == color;
        });
}

std::optional<VertexId> SubdividedComplex::find_provenance(
    VertexId p, const Simplex& tau) const {
    return vertex_index_.find(provenance_hash(p, tau), [&](VertexId v) {
        return provenance_[v].parent_vertex == p &&
               provenance_[v].parent_simplex == tau;
    });
}

VertexId SubdividedComplex::intern_provenance(VertexId p,
                                              const Simplex& tau) {
    const auto next = static_cast<VertexId>(provenance_.size());
    const VertexId id = vertex_index_.find_or_insert(
        provenance_hash(p, tau), next, [&](VertexId v) {
            return provenance_[v].parent_vertex == p &&
                   provenance_[v].parent_simplex == tau;
        });
    if (id == next) provenance_.push_back(Provenance{p, tau});
    return id;
}

void SubdividedComplex::index_positions() {
    for (std::size_t i = 0; i < position_.size(); ++i) {
        const BaryPoint& position = position_[i];
        // A gap below the largest of sparse base vertex ids: no vertex.
        if (position.coords().empty()) continue;
        const auto v = static_cast<VertexId>(i);
        const Color color = complex_.color(v);
        position_index_.find_or_insert(
            position_key_hash(position, color), v, [&](VertexId w) {
                return position_[w] == position && complex_.color(w) == color;
            });
    }
}

Simplex SubdividedComplex::facet_for_partition(
    const Simplex& parent_facet,
    const std::vector<std::vector<VertexId>>& blocks) const {
    require(depth_ > 0, "facet_for_partition requires depth > 0");
    std::vector<VertexId> verts;
    Simplex prefix;
    std::size_t covered = 0;
    for (const std::vector<VertexId>& block : blocks) {
        require(!block.empty(), "facet_for_partition: empty block");
        for (VertexId v : block) {
            require(parent_facet.contains(v),
                    "facet_for_partition: block vertex not in facet");
            prefix = prefix.with(v);
        }
        covered += block.size();
        for (VertexId v : block) {
            // Look up through the canonical (collapsed) key.
            auto id = find_provenance(v, prefix);
            if (!id.has_value()) id = find_provenance(v, Simplex{v});
            require(id.has_value(),
                    "facet_for_partition: missing subdivision vertex");
            verts.push_back(*id);
        }
    }
    require(covered == parent_facet.size(),
            "facet_for_partition: blocks must partition the facet");
    return Simplex(std::move(verts));
}

SimplicialMap SubdividedComplex::retraction_to_parent(
    const ChromaticComplex& parent) const {
    require(depth_ > 0, "retraction_to_parent requires depth > 0");
    std::unordered_map<VertexId, VertexId> vm;
    for (VertexId v : complex_.vertex_ids()) {
        vm[v] = provenance_[v].parent_vertex;
    }
    SimplicialMap map(std::move(vm));
    ensure(map.is_simplicial(complex_.complex(), parent.complex()),
           "retraction_to_parent: not simplicial");
    return map;
}

std::vector<Simplex> SubdividedComplex::facets_containing(
    const BaryPoint& p) const {
    std::vector<Simplex> out;
    for (const Simplex& f : facets_) {
        if (point_in_simplex(p, positions_of(f))) out.push_back(f);
    }
    return out;
}

void SubdividedComplex::verify_subdivision_exactness() const {
    // Every facet must be non-degenerate within its carrier.
    for (const Simplex& f : facets_) {
        const Simplex c = carrier_of(f);
        ensure(f.dimension() == c.dimension(),
               "subdivision exactness: facet " + f.to_string() +
                   " degenerate in carrier " + c.to_string());
        ensure(!relative_volume(positions_of(f), c).is_zero(),
               "subdivision exactness: zero-volume facet " + f.to_string());
    }
    for (const Simplex& base_facet : base_.facets()) {
        Rational total;
        for (const Simplex& f : facets_) {
            if (!carrier_of(f).is_face_of(base_facet)) continue;
            // Only full-dimensional pieces contribute volume.
            if (f.dimension() != base_facet.dimension()) continue;
            if (!(carrier_of(f) == base_facet)) continue;
            const Rational vol = relative_volume(positions_of(f), base_facet);
            ensure(!vol.is_zero(),
                   "subdivision exactness: degenerate facet " + f.to_string());
            total += vol;
        }
        ensure(total == Rational(1),
               "subdivision exactness: volumes sum to " + total.to_string() +
                   " on base facet " + base_facet.to_string());
    }
}

}  // namespace gact::topo
