#include "core/csp_setup.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <queue>
#include <span>

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

DomainLists initial_domains(const ChromaticMapProblem& problem,
                            std::span<const VertexId> vertices) {
    const ChromaticComplex& codomain = *problem.codomain;
    // The color-matching codomain vertices, once per call.
    std::map<topo::Color, std::vector<VertexId>> by_color;
    for (VertexId w : codomain.vertex_ids()) {
        by_color[codomain.color(w)].push_back(w);
    }
    // The candidate list of each (constraint complex, color) pair a free
    // vertex asks for, filtered once: `allowed` returns stable references
    // within a solve, and many vertices share a complex and a color.
    std::map<std::pair<const SimplicialComplex*, topo::Color>,
             std::vector<VertexId>>
        admitted;
    const auto candidates = [&](const SimplicialComplex& allowed,
                                topo::Color color)
        -> const std::vector<VertexId>& {
        auto [it, inserted] = admitted.try_emplace({&allowed, color});
        if (inserted) {
            const auto cit = by_color.find(color);
            if (cit == by_color.end()) return it->second;
            for (VertexId w : cit->second) {
                if (allowed.contains(Simplex{w})) it->second.push_back(w);
            }
        }
        return it->second;
    };

    DomainLists domains(vertices.size());
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        const VertexId v = vertices[i];
        const SimplicialComplex& allowed = problem.allowed(Simplex{v});
        const auto fit = problem.fixed.find(v);
        if (fit != problem.fixed.end()) {
            const VertexId w = fit->second;
            if (codomain.contains_vertex(w) && allowed.contains(Simplex{w})) {
                domains[i].push_back(w);
            }
            continue;
        }
        domains[i] = candidates(allowed, problem.domain->color(v));
    }
    return domains;
}

FixedRoot::FixedRoot(const ChromaticMapProblem& problem,
                     const topo::AdjacencyIndex& index,
                     ConstraintTable& constraints,
                     const std::vector<VertexId>& fixed_order,
                     const DomainLists& fixed_domains)
    : problem_(problem),
      index_(index),
      constraints_(constraints),
      fixed_order_(fixed_order),
      fixed_domains_(fixed_domains) {
    require(fixed_domains.size() == fixed_order.size(),
            "FixedRoot: one domain per fixed vertex");
}

bool FixedRoot::is_fixed(VertexId x) const {
    return x < value_.size() && value_[x] != kFree;
}

void FixedRoot::fixed_images(const Simplex& sigma, VertexId skip) {
    images_.clear();
    for (VertexId x : sigma.vertices()) {
        if (x != skip) images_.push_back(value_[x]);
    }
}

bool FixedRoot::check() {
    value_.assign(id_slots(fixed_order_), kFree);
    for (std::size_t i = 0; i < fixed_order_.size(); ++i) {
        if (fixed_domains_[i].empty()) return false;  // fixed value rejected
        value_[fixed_order_[i]] = fixed_domains_[i].front();
    }
    if (fixed_order_.empty()) return true;

    // One pass over the domain complex in table order, which reads it
    // sequentially: each all-fixed simplex is checked, and each simplex
    // with one free vertex is listed under that vertex for propagate().
    const ChromaticComplex& codomain = *problem_.codomain;
    std::vector<std::pair<VertexId, const Simplex*>> one_free;
    for (const Simplex& sigma : problem_.domain->complex().simplices()) {
        if (sigma.size() < 2) continue;
        VertexId u = kFree;
        std::size_t num_free = 0;
        for (VertexId x : sigma.vertices()) {
            if (is_fixed(x)) continue;
            u = x;
            if (++num_free > 1) break;
        }
        if (num_free == 1) one_free.emplace_back(u, &sigma);
        if (num_free != 0) continue;
        fixed_images(sigma, kFree);
        const Simplex tau{std::span<const VertexId>(images_)};
        if (!codomain.contains(tau) ||
            !constraints_.at(index_.id_of(&sigma), sigma).contains(tau)) {
            return false;
        }
    }

    // The lists by free vertex (CSR), each in table order.
    VertexId max_free = 0;
    for (const auto& [u, sigma] : one_free) max_free = std::max(max_free, u);
    one_free_offsets_.assign(one_free.empty() ? 0 : max_free + 2, 0);
    for (const auto& [u, sigma] : one_free) ++one_free_offsets_[u + 1];
    for (std::size_t i = 1; i < one_free_offsets_.size(); ++i) {
        one_free_offsets_[i] += one_free_offsets_[i - 1];
    }
    one_free_.resize(one_free.size());
    std::vector<std::uint32_t> fill(one_free_offsets_);
    for (const auto& [u, sigma] : one_free) one_free_[fill[u]++] = sigma;
    return true;
}

bool FixedRoot::propagate(std::span<const VertexId> vertices,
                          DomainLists& domains) {
    const ChromaticComplex& codomain = *problem_.codomain;
    const auto mark = [&](VertexId w) {
        if (hit_[w] == 0) {
            hit_[w] = 1;
            hits_.push_back(w);
        }
    };
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        const VertexId u = vertices[i];
        if (static_cast<std::size_t>(u) + 1 >= one_free_offsets_.size()) {
            continue;
        }
        std::vector<VertexId>& domain = domains[i];
        for (std::uint32_t k = one_free_offsets_[u];
             k < one_free_offsets_[u + 1]; ++k) {
            const Simplex& sigma = *one_free_[k];
            if (!cofaces_.has_value()) {
                cofaces_.emplace(codomain.complex());
                hit_.assign(id_slots(codomain.vertex_ids()), 0);
            }
            fixed_images(sigma, u);
            const Simplex tau{std::span<const VertexId>(images_)};
            const SimplicialComplex& allowed =
                constraints_.at(index_.id_of(&sigma), sigma);

            // The w that keep the image in codomain ∩ allowed(sigma):
            // those of tau itself (the image collapses to tau), and the
            // extra vertex of every allowed codomain coface of tau with
            // one more vertex, walked from tau's least incident vertex.
            if (codomain.contains(tau) && allowed.contains(tau)) {
                for (VertexId t : tau.vertices()) mark(t);
            }
            VertexId pivot = tau.vertices().front();
            for (VertexId t : tau.vertices()) {
                if (cofaces_->incident_simplices(t).size() <
                    cofaces_->incident_simplices(pivot).size()) {
                    pivot = t;
                }
            }
            for (const Simplex* rho : cofaces_->incident_simplices(pivot)) {
                if (rho->size() != tau.size() + 1 || !tau.is_face_of(*rho) ||
                    !allowed.contains(*rho)) {
                    continue;
                }
                for (VertexId w : rho->vertices()) {
                    if (!tau.contains(w)) mark(w);
                }
            }

            std::erase_if(domain, [&](VertexId w) { return hit_[w] == 0; });
            for (VertexId w : hits_) hit_[w] = 0;
            hits_.clear();
            if (domain.empty()) return false;
        }
    }
    return true;
}

void rank_domains(const ChromaticMapProblem& problem,
                  std::span<const VertexId> vertices, DomainLists& domains) {
    if (!problem.order_candidates) return;
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        if (domains[i].size() < 2) continue;
        problem.order_candidates(vertices[i], domains[i]);
    }
}

}  // namespace gact::core::csp_setup
