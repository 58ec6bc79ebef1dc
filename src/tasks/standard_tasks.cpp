#include "tasks/standard_tasks.h"

#include <algorithm>

#include "topology/combinatorics.h"
#include "util/require.h"

namespace gact::tasks {

Simplex sigma_alpha(const topo::SubdividedComplex& chr2,
                    const std::vector<ProcessId>& alpha) {
    const int n = chr2.base().dimension();
    require(!alpha.empty() && static_cast<int>(alpha.size()) <= n + 1,
            "sigma_alpha: permutation size out of range");
    require(chr2.depth() == 2, "sigma_alpha: needs the second subdivision");

    // The flag of faces f_0 ⊂ f_1 ⊂ ... with f_i = {alpha_0..alpha_i}.
    // For a permutation of a proper subset S the flag lives in the face
    // spanned by S and identifies a (|S|-1)-simplex (a face of the full
    // sigma_alpha for any permutation extending alpha).
    std::vector<Simplex> flag(alpha.size());
    ProcessSet colors;
    Simplex acc;
    for (std::size_t i = 0; i < alpha.size(); ++i) {
        require(!colors.contains(alpha[i]), "sigma_alpha: repeated process");
        colors = colors.with(alpha[i]);
        acc = acc.with(static_cast<topo::VertexId>(alpha[i]));
        flag[i] = acc;
    }

    const int dim = static_cast<int>(alpha.size()) - 1;
    std::vector<Simplex> matches;
    for (const Simplex& f :
         chr2.complex().complex().simplices_of_dimension(dim)) {
        if (!(chr2.complex().colors_of(f) == colors)) continue;
        bool ok = true;
        for (std::size_t i = 0; i < alpha.size() && ok; ++i) {
            const topo::VertexId v =
                chr2.complex().vertex_with_color(f, alpha[i]);
            // "Interior of the i-dimensional face": the carrier (coordinate
            // support) is exactly flag[i].
            if (!(chr2.carrier(v) == flag[i])) ok = false;
        }
        if (ok) matches.push_back(f);
    }
    require(matches.size() == 1,
            "sigma_alpha: expected a unique simplex, found " +
                std::to_string(matches.size()));
    return matches.front();
}

AffineTask total_order_task(int n) {
    topo::SubdividedComplex chr2 = topo::SubdividedComplex::
        iterated_chromatic(topo::ChromaticComplex::standard_simplex(n), 2);
    std::vector<Simplex> facets;
    for (const auto& perm : topo::all_permutations(
             static_cast<std::size_t>(n) + 1)) {
        std::vector<ProcessId> alpha(perm.begin(), perm.end());
        facets.push_back(sigma_alpha(chr2, alpha));
    }
    SimplicialComplex l = SimplicialComplex::from_facets(facets);
    return make_affine_task("L_ord(n=" + std::to_string(n) + ")",
                            std::move(chr2), std::move(l));
}

AffineTask t_resilience_task(int n, int t) {
    require(t >= 0 && t <= n, "t_resilience_task: need 0 <= t <= n");
    topo::SubdividedComplex chr2 = topo::SubdividedComplex::
        iterated_chromatic(topo::ChromaticComplex::standard_simplex(n), 2);
    // Keep the facets having no vertex on an (n-t-1)-dimensional face,
    // i.e. every vertex's carrier has dimension >= n-t.
    std::vector<Simplex> kept;
    for (const Simplex& f : chr2.facets()) {
        if (std::ranges::all_of(f.vertices(), [&](topo::VertexId v) {
                return chr2.carrier(v).dimension() >= n - t;
            })) {
            kept.push_back(f);
        }
    }
    SimplicialComplex l = SimplicialComplex::from_facets(kept);
    return make_affine_task(
        "L_" + std::to_string(t) + "(n=" + std::to_string(n) + ")",
        std::move(chr2), std::move(l));
}

AffineTask immediate_snapshot_task(int n) {
    topo::SubdividedComplex chr = topo::SubdividedComplex::
        iterated_chromatic(topo::ChromaticComplex::standard_simplex(n), 1);
    SimplicialComplex l = SimplicialComplex::from_facets(chr.facets());
    return make_affine_task("IS(n=" + std::to_string(n) + ")", std::move(chr),
                            std::move(l));
}

topo::VertexId value_vertex(std::uint32_t num_values, ProcessId p,
                            std::uint32_t value) {
    require(value < num_values, "value_vertex: value out of range");
    return p * num_values + value;
}

namespace {

/// The pseudosphere complex where process p holds any value: facets are
/// all assignments of one value per process.
ChromaticComplex pseudosphere(std::uint32_t num_processes,
                              std::uint32_t num_values) {
    std::unordered_map<topo::VertexId, topo::Color> colors;
    for (ProcessId p = 0; p < num_processes; ++p) {
        for (std::uint32_t v = 0; v < num_values; ++v) {
            colors[value_vertex(num_values, p, v)] = p;
        }
    }
    std::vector<Simplex> facets;
    std::vector<std::uint32_t> choice(num_processes, 0);
    while (true) {
        std::vector<topo::VertexId> verts;
        for (ProcessId p = 0; p < num_processes; ++p) {
            verts.push_back(value_vertex(num_values, p, choice[p]));
        }
        facets.emplace_back(std::move(verts));
        // Advance the mixed-radix counter.
        std::size_t i = 0;
        while (i < num_processes && ++choice[i] == num_values) {
            choice[i] = 0;
            ++i;
        }
        if (i == num_processes) break;
    }
    return ChromaticComplex(SimplicialComplex::from_facets(facets), colors);
}

/// The values carried by a simplex of a pseudosphere.
std::vector<std::uint32_t> values_of(const Simplex& s,
                                     std::uint32_t num_values) {
    std::vector<std::uint32_t> out;
    for (topo::VertexId v : s.vertices()) out.push_back(v % num_values);
    return out;
}

}  // namespace

Task k_set_agreement_task(std::uint32_t num_processes, std::uint32_t k,
                          std::uint32_t num_values) {
    require(k >= 1, "k_set_agreement_task: k >= 1");
    Task task;
    task.name = std::to_string(k) + "-set-agreement(" +
                std::to_string(num_processes) + "p," +
                std::to_string(num_values) + "v)";
    task.num_processes = num_processes;
    task.inputs = pseudosphere(num_processes, num_values);
    task.outputs = pseudosphere(num_processes, num_values);

    for (const Simplex& sigma : task.inputs.complex().simplices()) {
        // Allowed outputs for participants chi(sigma) with inputs V(sigma):
        // assignments of values from V(sigma) to exactly those processes,
        // with at most k distinct values.
        const ProcessSet procs = task.inputs.colors_of(sigma);
        std::vector<std::uint32_t> allowed = values_of(sigma, num_values);
        std::sort(allowed.begin(), allowed.end());
        allowed.erase(std::unique(allowed.begin(), allowed.end()),
                      allowed.end());

        SimplicialComplex image;
        // Enumerate assignments participants -> allowed values.
        const std::vector<ProcessId> members = procs.members();
        std::vector<std::size_t> choice(members.size(), 0);
        while (true) {
            std::vector<std::uint32_t> distinct;
            std::vector<topo::VertexId> verts;
            for (std::size_t i = 0; i < members.size(); ++i) {
                const std::uint32_t val = allowed[choice[i]];
                distinct.push_back(val);
                verts.push_back(value_vertex(num_values, members[i], val));
            }
            std::sort(distinct.begin(), distinct.end());
            distinct.erase(std::unique(distinct.begin(), distinct.end()),
                           distinct.end());
            if (distinct.size() <= k) {
                image.add_simplex(Simplex(std::move(verts)));
            }
            std::size_t i = 0;
            while (i < choice.size() && ++choice[i] == allowed.size()) {
                choice[i] = 0;
                ++i;
            }
            if (i == choice.size()) break;
        }
        task.delta.set(sigma, std::move(image));
    }
    const std::string err = task.validate();
    ensure(err.empty(), "k_set_agreement_task: invalid task: " + err);
    return task;
}

Task consensus_task(std::uint32_t num_processes, std::uint32_t num_values) {
    Task task = k_set_agreement_task(num_processes, 1, num_values);
    task.name = "consensus(" + std::to_string(num_processes) + "p," +
                std::to_string(num_values) + "v)";
    return task;
}

}  // namespace gact::tasks
