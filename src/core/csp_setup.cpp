#include "core/csp_setup.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <queue>
#include <span>
#include <unordered_map>

#include "util/require.h"

namespace gact::core::csp_setup {

namespace {

/// One past the largest id in an ascending id list.
std::size_t id_slots(const std::vector<VertexId>& ascending_ids) {
    return ascending_ids.empty()
               ? 0
               : static_cast<std::size_t>(ascending_ids.back()) + 1;
}

}  // namespace

Decomposition decompose(const ChromaticMapProblem& problem,
                        const topo::AdjacencyIndex& index) {
    Decomposition out;
    const std::vector<VertexId> vertices = problem.domain->vertex_ids();
    const std::size_t slots = id_slots(vertices);

    constexpr std::uint32_t kUnseen = UINT32_MAX;
    constexpr std::uint32_t kFixed = UINT32_MAX - 1;
    std::vector<std::uint32_t> component(slots, kUnseen);
    for (const auto& [v, w] : problem.fixed) {
        (void)w;
        require(problem.domain->contains_vertex(v),
                "solve_chromatic_map: fixed vertex not in domain");
        out.fixed_order.push_back(v);
        component[v] = kFixed;
    }
    std::sort(out.fixed_order.begin(), out.fixed_order.end());

    std::uint32_t num_components = 0;
    std::vector<VertexId> stack;
    for (VertexId v : vertices) {
        if (component[v] != kUnseen) continue;
        stack.assign(1, v);
        component[v] = num_components;
        while (!stack.empty()) {
            const VertexId u = stack.back();
            stack.pop_back();
            for (VertexId w : index.neighbors(u)) {
                if (component[w] == kUnseen) {
                    component[w] = num_components;
                    stack.push_back(w);
                }
            }
        }
        ++num_components;
    }
    std::vector<std::vector<VertexId>> members(num_components);
    for (VertexId v : vertices) {
        if (component[v] != kFixed) members[component[v]].push_back(v);
    }

    // Maximum-cardinality order by a max-heap keyed (placed-neighbor
    // count descending, id ascending) with lazy deletion: a member is
    // re-pushed whenever its count rises, and popped entries that are
    // placed or carry a stale count are skipped. Counts only rise, so the
    // first valid entry is exactly the unplaced member with the highest
    // count and, among those, the smallest id. An entry packs the count
    // above the complemented id, so the largest key wins.
    std::vector<std::uint32_t> placed_neighbors(slots, 0);
    std::vector<char> placed(slots, 0);
    const auto key = [&](VertexId v) {
        return std::uint64_t{placed_neighbors[v]} << 32 | (UINT32_MAX - v);
    };
    std::priority_queue<std::uint64_t> heap;
    std::uint32_t current = kUnseen;  // the component being ordered
    const auto place = [&](VertexId v) {
        placed[v] = 1;
        for (VertexId u : index.neighbors(v)) {
            ++placed_neighbors[u];
            if (component[u] == current && placed[u] == 0) {
                heap.push(key(u));
            }
        }
    };
    for (VertexId v : out.fixed_order) place(v);
    out.component_orders.resize(num_components);
    for (current = 0; current < num_components; ++current) {
        std::vector<VertexId>& order = out.component_orders[current];
        order.reserve(members[current].size());
        for (VertexId v : members[current]) heap.push(key(v));
        while (!heap.empty()) {
            const std::uint64_t top = heap.top();
            heap.pop();
            const VertexId v =
                UINT32_MAX - static_cast<std::uint32_t>(top & UINT32_MAX);
            if (placed[v] != 0 || top != key(v)) continue;
            order.push_back(v);
            place(v);
        }
    }
    return out;
}

DomainTable initial_domains(const ChromaticMapProblem& problem) {
    const ChromaticComplex& codomain = *problem.codomain;
    const std::vector<VertexId> targets = codomain.vertex_ids();
    const std::size_t target_slots = id_slots(targets);
    // The color-matching codomain vertices, once per color.
    std::map<topo::Color, std::vector<VertexId>> by_color;
    for (VertexId w : targets) by_color[codomain.color(w)].push_back(w);

    // The per-vertex constraint filter as one byte per codomain id,
    // memoized per constraint complex: `allowed` returns stable
    // references within a solve, and many vertices share a complex.
    std::unordered_map<const SimplicialComplex*, std::vector<char>> admits;
    const auto admitted_by =
        [&](const SimplicialComplex& allowed) -> const std::vector<char>& {
        auto [it, inserted] = admits.try_emplace(&allowed);
        if (inserted) {
            it->second.assign(target_slots, 0);
            for (VertexId w : targets) {
                it->second[w] = allowed.contains(Simplex{w}) ? 1 : 0;
            }
        }
        return it->second;
    };

    const std::vector<VertexId> vertices = problem.domain->vertex_ids();
    DomainTable domains(id_slots(vertices));
    for (VertexId v : vertices) {
        const std::vector<char>& admitted =
            admitted_by(problem.allowed(Simplex{v}));
        std::vector<VertexId>& domain = domains[v];
        const auto fit = problem.fixed.find(v);
        if (fit != problem.fixed.end()) {
            // Non-codomain ids within range are never admitted.
            const VertexId w = fit->second;
            if (w < target_slots && admitted[w] != 0) domain.push_back(w);
            continue;
        }
        const auto cit = by_color.find(problem.domain->color(v));
        if (cit == by_color.end()) continue;
        for (VertexId w : cit->second) {
            if (admitted[w] != 0) domain.push_back(w);
        }
    }
    return domains;
}

bool propagate_fixed(const ChromaticMapProblem& problem,
                     const topo::AdjacencyIndex& index,
                     ConstraintTable& constraints,
                     const std::vector<VertexId>& fixed_order,
                     DomainTable& domains) {
    if (fixed_order.empty()) return true;
    std::vector<char> is_fixed(domains.size(), 0);
    for (VertexId v : fixed_order) {
        if (domains[v].empty()) return false;  // fixed value rejected
        is_fixed[v] = 1;
    }

    const ChromaticComplex& codomain = *problem.codomain;
    const topo::AdjacencyIndex cofaces(codomain.complex());
    std::vector<char> hit(id_slots(codomain.vertex_ids()), 0);
    std::vector<VertexId> hits;
    std::vector<char> seen(index.id_bound(), 0);
    std::vector<VertexId> images;
    const auto mark = [&](VertexId w) {
        if (hit[w] == 0) {
            hit[w] = 1;
            hits.push_back(w);
        }
    };

    for (VertexId f : fixed_order) {
        for (const Simplex* sigma_ptr : index.incident_simplices(f)) {
            const std::size_t id = index.id_of(sigma_ptr);
            if (seen[id] != 0) continue;
            seen[id] = 1;
            const Simplex& sigma = *sigma_ptr;
            images.clear();
            VertexId u = 0;
            std::size_t num_free = 0;
            for (VertexId x : sigma.vertices()) {
                if (is_fixed[x] != 0) {
                    images.push_back(domains[x].front());
                } else {
                    u = x;
                    if (++num_free > 1) break;
                }
            }
            if (num_free > 1) continue;
            const Simplex tau{std::span<const VertexId>(images)};
            const SimplicialComplex& allowed = constraints.at(id, sigma);
            const bool tau_ok =
                codomain.contains(tau) && allowed.contains(tau);
            if (num_free == 0) {
                if (!tau_ok) return false;
                continue;
            }

            // The w that keep the image in codomain ∩ allowed(sigma):
            // those of tau itself (the image collapses to tau), and the
            // extra vertex of every allowed codomain coface of tau with
            // one more vertex, walked from tau's least incident vertex.
            if (tau_ok) {
                for (VertexId t : tau.vertices()) mark(t);
            }
            VertexId pivot = tau.vertices().front();
            for (VertexId t : tau.vertices()) {
                if (cofaces.incident_simplices(t).size() <
                    cofaces.incident_simplices(pivot).size()) {
                    pivot = t;
                }
            }
            for (const Simplex* rho : cofaces.incident_simplices(pivot)) {
                if (rho->size() != tau.size() + 1 || !tau.is_face_of(*rho) ||
                    !allowed.contains(*rho)) {
                    continue;
                }
                for (VertexId w : rho->vertices()) {
                    if (!tau.contains(w)) mark(w);
                }
            }

            std::vector<VertexId>& domain = domains[u];
            std::erase_if(domain, [&](VertexId w) { return hit[w] == 0; });
            for (VertexId w : hits) hit[w] = 0;
            hits.clear();
            if (domain.empty()) return false;
        }
    }
    return true;
}

void rank_domains(const ChromaticMapProblem& problem, DomainTable& domains) {
    if (!problem.order_candidates) return;
    for (std::size_t v = 0; v < domains.size(); ++v) {
        if (domains[v].size() < 2) continue;
        problem.order_candidates(static_cast<VertexId>(v), domains[v]);
    }
}

}  // namespace gact::core::csp_setup
