// The CSP set-up stages (core/csp_setup.h) against plain references kept
// here: the O(V^2) maximum-cardinality decomposition that rescans every
// member per step, the initial domains by their definition over the
// whole problem, and the per-value root propagation that assigns the
// fixed vertices one by one and forward-checks every constraint left one
// vertex short (the search engine's own forward checking, run at the
// root with direct constraint evaluation). The solver sets up one
// component at a time; every component's lists must agree, slot for
// slot, with the whole-problem references on every registry scenario's
// CSP and on hand-built edge cases: equal component orders, equal root
// conflicts, equal initial and propagated domains, and equal ranked
// domains whether a domain is ranked before propagation (the reference)
// or after it (the solver).
//
// The carrier-mask `allowed` of lt_approximation_problem is held against
// the carrier union it replaced: the same Delta complex, by address, for
// every K(T) simplex.
//
// The heavy cases run the same checks on lt-3-2-res2. The test is labeled
// `heavy` in CTest and they self-skip unless GACT_RUN_HEAVY=1:
//
//   GACT_RUN_HEAVY=1 ctest -L heavy --output-on-failure
#include "core/csp_setup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/act_solver.h"
#include "core/lt_pipeline.h"
#include "engine/general_route.h"
#include "engine/scenario_registry.h"

namespace gact::core {
namespace {

using csp_setup::Decomposition;
using csp_setup::DomainLists;

/// Candidate lists of the whole problem by vertex id (the references'
/// shape); ids that are not domain vertices hold empty lists.
using DomainTable = std::vector<std::vector<VertexId>>;

// ---------------------------------------------------------------------------
// References.
// ---------------------------------------------------------------------------

/// The initial domains by their definition: every color-matching codomain
/// vertex (or the fixed value) that is a codomain vertex allowed at v.
DomainTable reference_initial_domains(const ChromaticMapProblem& problem) {
    const std::vector<VertexId> vertices = problem.domain->vertex_ids();
    DomainTable domains(vertices.empty() ? 0 : vertices.back() + 1);
    for (VertexId v : vertices) {
        std::vector<VertexId> candidates;
        const auto fit = problem.fixed.find(v);
        if (fit != problem.fixed.end()) {
            candidates = {fit->second};
        } else {
            const topo::Color c = problem.domain->color(v);
            for (VertexId w : problem.codomain->vertex_ids()) {
                if (problem.codomain->color(w) == c) candidates.push_back(w);
            }
        }
        const SimplicialComplex& allowed = problem.allowed(Simplex{v});
        for (VertexId w : candidates) {
            if (problem.codomain->contains_vertex(w) &&
                allowed.contains(Simplex{w})) {
                domains[v].push_back(w);
            }
        }
    }
    return domains;
}

/// The maximum-cardinality decomposition by rescanning: per step, every
/// member of the component is scored.
Decomposition reference_decompose(const ChromaticMapProblem& problem,
                                  const topo::AdjacencyIndex& index) {
    Decomposition out;
    const std::vector<VertexId> vertices = problem.domain->vertex_ids();

    for (const auto& [v, w] : problem.fixed) {
        (void)w;
        out.fixed_order.push_back(v);
    }
    std::sort(out.fixed_order.begin(), out.fixed_order.end());

    std::unordered_map<VertexId, std::size_t> component;
    std::size_t num_components = 0;
    for (VertexId v : vertices) {
        if (problem.fixed.count(v) != 0 || component.count(v) != 0) continue;
        std::vector<VertexId> stack{v};
        component[v] = num_components;
        while (!stack.empty()) {
            const VertexId u = stack.back();
            stack.pop_back();
            for (VertexId w : index.neighbors(u)) {
                if (problem.fixed.count(w) == 0 && component.count(w) == 0) {
                    component[w] = num_components;
                    stack.push_back(w);
                }
            }
        }
        ++num_components;
    }

    out.component_orders.resize(num_components);
    std::unordered_map<VertexId, std::size_t> ordered_neighbors;
    std::unordered_set<VertexId> placed;
    const auto place = [&](VertexId v) {
        placed.insert(v);
        for (VertexId u : index.neighbors(v)) ++ordered_neighbors[u];
    };
    for (VertexId v : out.fixed_order) place(v);
    for (std::size_t c = 0; c < num_components; ++c) {
        std::vector<VertexId> members;
        for (VertexId v : vertices) {
            const auto it = component.find(v);
            if (it != component.end() && it->second == c) {
                members.push_back(v);
            }
        }
        for (std::size_t step = 0; step < members.size(); ++step) {
            VertexId best = 0;
            std::size_t best_score = 0;
            bool found = false;
            for (VertexId v : members) {
                if (placed.count(v) != 0) continue;
                const std::size_t score = ordered_neighbors[v];
                if (!found || score > best_score ||
                    (score == best_score && v < best)) {
                    best = v;
                    best_score = score;
                    found = true;
                }
            }
            out.component_orders[c].push_back(best);
            place(best);
        }
    }
    return out;
}

/// Root propagation value by value: fixed vertices assigned in order;
/// each assignment checks the completed constraints and filters the live
/// values of the single unassigned vertex of every constraint one short.
/// A violation or a wipeout is a root conflict (nullopt).
std::optional<DomainTable> reference_propagate(
    const ChromaticMapProblem& problem, const topo::AdjacencyIndex& index,
    const std::vector<VertexId>& fixed_order, const DomainTable& domains) {
    if (fixed_order.empty()) return domains;
    struct Var {
        std::vector<VertexId> values;
        std::vector<char> active;
        std::size_t active_count = 0;
        VertexId value = 0;
        bool assigned = false;
    };
    std::unordered_map<VertexId, Var> vars;
    for (VertexId v : problem.domain->vertex_ids()) {
        Var& var = vars[v];
        var.values = domains[v];
        var.active.assign(var.values.size(), 1);
        var.active_count = var.values.size();
    }
    const auto try_assign = [&](VertexId v, VertexId w) {
        Var& var = vars.at(v);
        var.assigned = true;
        var.value = w;
        for (const Simplex* sigma_ptr : index.incident_simplices(v)) {
            const Simplex& sigma = *sigma_ptr;
            std::size_t num_unassigned = 0;
            VertexId unassigned = 0;
            for (VertexId u : sigma.vertices()) {
                if (!vars.at(u).assigned) {
                    unassigned = u;
                    ++num_unassigned;
                }
            }
            if (num_unassigned == 0) {
                std::vector<VertexId> image;
                for (VertexId u : sigma.vertices()) {
                    image.push_back(vars.at(u).value);
                }
                const Simplex img{std::span<const VertexId>(image)};
                if (!problem.codomain->contains(img) ||
                    !problem.allowed(sigma).contains(img)) {
                    return false;
                }
            } else if (num_unassigned == 1) {
                Var& uvar = vars.at(unassigned);
                const SimplicialComplex& allowed = problem.allowed(sigma);
                for (std::size_t i = 0; i < uvar.values.size(); ++i) {
                    if (!uvar.active[i]) continue;
                    std::vector<VertexId> image;
                    for (VertexId u : sigma.vertices()) {
                        image.push_back(u == unassigned ? uvar.values[i]
                                                        : vars.at(u).value);
                    }
                    const Simplex img{std::span<const VertexId>(image)};
                    if (!problem.codomain->contains(img) ||
                        !allowed.contains(img)) {
                        uvar.active[i] = 0;
                        --uvar.active_count;
                    }
                }
                if (uvar.active_count == 0) return false;
            }
        }
        return true;
    };
    for (VertexId v : fixed_order) {
        const Var& var = vars.at(v);
        if (var.values.empty() || !try_assign(v, var.values.front())) {
            return std::nullopt;
        }
    }
    DomainTable out(domains.size());
    for (const auto& [v, var] : vars) {
        for (std::size_t i = 0; i < var.values.size(); ++i) {
            if (var.active[i]) out[v].push_back(var.values[i]);
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------------

/// Counts of what compare_setup saw, so a test can require that its
/// corpus exercised each path.
struct Coverage {
    std::size_t problems = 0;
    std::size_t propagations = 0;  // problems with fixed vertices
    std::size_t conflicts = 0;
    std::size_t pruned = 0;  // candidates removed by root propagation
};

/// The ranked full lists: order_candidates on every list of two or more.
DomainTable reference_rank(const ChromaticMapProblem& problem,
                           DomainTable domains) {
    if (!problem.order_candidates) return domains;
    for (std::size_t v = 0; v < domains.size(); ++v) {
        if (domains[v].size() < 2) continue;
        problem.order_candidates(static_cast<VertexId>(v), domains[v]);
    }
    return domains;
}

/// Each listed vertex's list against the reference's list for it.
void expect_slots(const DomainLists& lists,
                  const std::vector<VertexId>& vertices,
                  const DomainTable& reference, const std::string& label) {
    ASSERT_EQ(lists.size(), vertices.size()) << label;
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        EXPECT_EQ(lists[i], reference[vertices[i]])
            << label << ", vertex " << vertices[i];
    }
}

/// The solver's set-up, one component at a time, against the
/// whole-problem references. Every component is set up, also after one
/// wipes out, so each is compared on its own.
void compare_setup(const ChromaticMapProblem& problem,
                   const std::string& label, Coverage& coverage) {
    ++coverage.problems;
    const topo::AdjacencyIndex index(problem.domain->complex());

    const Decomposition dec = csp_setup::decompose(problem, index);
    const Decomposition ref_dec = reference_decompose(problem, index);
    EXPECT_EQ(dec.fixed_order, ref_dec.fixed_order) << label;
    EXPECT_EQ(dec.component_orders, ref_dec.component_orders) << label;

    const DomainTable ref_base = reference_initial_domains(problem);
    const std::optional<DomainTable> ref_propagated =
        reference_propagate(problem, index, ref_dec.fixed_order, ref_base);
    // The solver ranks after propagation; ranking the full lists first
    // and propagating them must give the same lists.
    const std::optional<DomainTable> ref_ranked = reference_propagate(
        problem, index, ref_dec.fixed_order,
        reference_rank(problem, ref_base));
    ASSERT_EQ(ref_propagated.has_value(), ref_ranked.has_value()) << label;

    ConstraintTable constraints(problem, index.id_bound());
    const DomainLists fixed =
        csp_setup::initial_domains(problem, dec.fixed_order);
    expect_slots(fixed, dec.fixed_order, ref_base, label + " fixed");
    csp_setup::FixedRoot root(problem, index, constraints, dec.fixed_order,
                              fixed);
    const bool fixed_ok = root.check();
    bool ok = fixed_ok;
    std::vector<DomainLists> propagated;
    for (std::size_t c = 0; c < dec.component_orders.size(); ++c) {
        const std::vector<VertexId>& order = dec.component_orders[c];
        const std::string where =
            label + " component " + std::to_string(c);
        DomainLists domains = csp_setup::initial_domains(problem, order);
        expect_slots(domains, order, ref_base, where + " initial");
        // A fixed conflict ends the set-up before any propagation.
        if (fixed_ok && !root.propagate(order, domains)) ok = false;
        propagated.push_back(std::move(domains));
    }
    ASSERT_EQ(ok, ref_propagated.has_value()) << label;
    if (!dec.fixed_order.empty()) ++coverage.propagations;
    if (!ok) {
        ++coverage.conflicts;
        return;
    }
    expect_slots(fixed, dec.fixed_order, *ref_propagated,
                 label + " fixed propagated");
    for (std::size_t c = 0; c < dec.component_orders.size(); ++c) {
        const std::vector<VertexId>& order = dec.component_orders[c];
        const std::string where =
            label + " component " + std::to_string(c);
        DomainLists& domains = propagated[c];
        expect_slots(domains, order, *ref_propagated, where + " propagated");
        for (std::size_t i = 0; i < order.size(); ++i) {
            coverage.pruned += ref_base[order[i]].size() - domains[i].size();
        }
        csp_setup::rank_domains(problem, order, domains);
        expect_slots(domains, order, *ref_ranked, where + " ranked");
    }
}

/// The terminating subdivision a general-route scenario's solve builds:
/// its stable rule advanced through its stages.
std::unique_ptr<TerminatingSubdivision> build_subdivision(
    const engine::Scenario& scenario) {
    auto tsub = std::make_unique<TerminatingSubdivision>(
        scenario.affine->task.inputs);
    for (std::size_t i = 0; i < scenario.options.subdivision_stages; ++i) {
        tsub->advance(
            [&scenario](const SubdividedComplex& cx, const Simplex& s) {
                return scenario.options.stable_rule->stable(cx, s);
            },
            scenario.options.shard_threads);
    }
    return tsub;
}

/// Every approximation or ACT CSP the engine poses for one scenario, in
/// solve order: the wait-free route's Chr^k problems up to the first
/// witness, or the general route's K(T) -> L problem.
void for_each_csp(const engine::Scenario& scenario,
                  const std::function<void(const ChromaticMapProblem&,
                                           const std::string&)>& fn) {
    if (scenario.is_wait_free()) {
        topo::SubdividedComplex chr =
            topo::SubdividedComplex::identity(scenario.task.inputs);
        for (int k = 0; k <= scenario.options.max_depth; ++k) {
            if (k > 0) chr = chr.chromatic_subdivision();
            const ChromaticMapProblem problem =
                act_problem(scenario.task, chr);
            fn(problem, scenario.name + " k=" + std::to_string(k));
            if (solve_chromatic_map(problem, SolverConfig::fast())
                    .map.has_value()) {
                return;
            }
        }
        return;
    }
    if (!scenario.affine.has_value() ||
        scenario.options.stable_rule == nullptr) {
        return;
    }
    // The engine's downgrade of radial guidance off the n = 2 base.
    LtGuidance guidance = scenario.options.guidance;
    if (guidance == LtGuidance::kRadial &&
        scenario.affine->subdivision.base().dimension() != 2) {
        guidance = LtGuidance::kNearest;
    }
    const std::unique_ptr<TerminatingSubdivision> tsub =
        build_subdivision(scenario);
    if (tsub->stable_complex().is_empty()) return;
    const ChromaticMapProblem problem = lt_approximation_problem(
        *scenario.affine, *tsub, scenario.options.fix_identity, guidance);
    fn(problem, scenario.name);
}

TEST(CspSetup, MatchesTheReferencesOnEveryRegistryCsp) {
    Coverage coverage;
    for (const auto& spec : engine::ScenarioRegistry::standard().specs()) {
        if (spec.heavy) continue;  // CspSetupHeavy below
        engine::Scenario scenario = spec.make();
        scenario.name = spec.name;
        for_each_csp(scenario, [&](const ChromaticMapProblem& problem,
                                   const std::string& label) {
            compare_setup(problem, label, coverage);
        });
    }
    // The corpus must exercise root propagation and its pruning.
    EXPECT_GT(coverage.problems, 0u);
    EXPECT_GT(coverage.propagations, 0u);
    EXPECT_GT(coverage.pruned, 0u);
}

TEST(CspSetupHeavy, MatchesTheReferencesOnLt32Res2) {
    const char* run = std::getenv("GACT_RUN_HEAVY");
    if (run == nullptr || std::string(run) == "0") {
        GTEST_SKIP() << "set GACT_RUN_HEAVY=1 to run the heavy comparison";
    }
    const auto scenario =
        engine::ScenarioRegistry::standard().find("lt-3-2-res2");
    ASSERT_TRUE(scenario.has_value());
    Coverage coverage;
    for_each_csp(*scenario, [&](const ChromaticMapProblem& problem,
                                const std::string& label) {
        compare_setup(problem, label, coverage);
    });
    EXPECT_EQ(coverage.problems, 1u);
    EXPECT_EQ(coverage.propagations, 1u);
    EXPECT_EQ(coverage.conflicts, 0u);
    EXPECT_GT(coverage.pruned, 0u);
}

// ---------------------------------------------------------------------------
// Hand-built edge cases.
// ---------------------------------------------------------------------------

/// An edge {0, 1} (colors 0, 1) into a small codomain: color-0 vertices
/// 10, 12 and color-1 vertices 11, 13, 15, with edges {10, 11},
/// {10, 13}, {12, 13} and 15 isolated.
class CspSetupEdgeCases : public ::testing::Test {
protected:
    CspSetupEdgeCases()
        : domain_(SimplicialComplex::from_facets({Simplex{0, 1}}),
                  {{0, 0}, {1, 1}}),
          codomain_(SimplicialComplex::from_facets(
                        {Simplex{10, 11}, Simplex{10, 13}, Simplex{12, 13},
                         Simplex{15}}),
                    {{10, 0}, {11, 1}, {12, 0}, {13, 1}, {15, 1}}) {
        problem_.domain = &domain_;
        problem_.codomain = &codomain_;
        problem_.allowed = [this](const Simplex&)
            -> const SimplicialComplex& { return codomain_.complex(); };
    }

    /// Compare against the references; returns whether set-up found no
    /// root conflict, and the propagated domain of the free vertex 1.
    std::pair<bool, std::vector<VertexId>> run(const std::string& label) {
        Coverage coverage;
        compare_setup(problem_, label, coverage);
        const topo::AdjacencyIndex index(domain_.complex());
        const Decomposition dec = csp_setup::decompose(problem_, index);
        ConstraintTable constraints(problem_, index.id_bound());
        const DomainLists fixed =
            csp_setup::initial_domains(problem_, dec.fixed_order);
        csp_setup::FixedRoot root(problem_, index, constraints,
                                  dec.fixed_order, fixed);
        if (!root.check()) return {false, {}};
        std::vector<VertexId> domain_of_1;
        for (const std::vector<VertexId>& order : dec.component_orders) {
            DomainLists domains = csp_setup::initial_domains(problem_, order);
            if (!root.propagate(order, domains)) return {false, {}};
            for (std::size_t i = 0; i < order.size(); ++i) {
                if (order[i] == 1) domain_of_1 = domains[i];
            }
        }
        return {true, domain_of_1};
    }

    ChromaticComplex domain_;
    ChromaticComplex codomain_;
    ChromaticMapProblem problem_;
};

TEST_F(CspSetupEdgeCases, FreeVertexKeepsTheAllowedCofaceVertices) {
    problem_.fixed = {{0, 10}};
    const auto [ok, domain] = run("coface");
    ASSERT_TRUE(ok);
    EXPECT_EQ(domain, (std::vector<VertexId>{11, 13}));
}

TEST_F(CspSetupEdgeCases, RepeatedImageValueCollapsesToTheFixedImage) {
    // Vertex 0 is fixed to 11 — off its own color, which set-up does not
    // police. Then w = 11 for vertex 1 maps the edge onto the vertex
    // {11}, which the codomain holds, while 13 and 15 share no edge with
    // 11. Only the collapsed image survives.
    problem_.fixed = {{0, 11}};
    const auto [ok, domain] = run("collapse");
    ASSERT_TRUE(ok);
    EXPECT_EQ(domain, (std::vector<VertexId>{11}));
}

TEST_F(CspSetupEdgeCases, FixedValueOutsideTheCodomainIsARootConflict) {
    problem_.fixed = {{0, 99}};
    EXPECT_FALSE(run("outside").first);
}

TEST_F(CspSetupEdgeCases, FixedValueRejectedByItsOwnConstraint) {
    const SimplicialComplex no_ten = SimplicialComplex::from_facets(
        {Simplex{12, 13}, Simplex{11}, Simplex{15}});
    problem_.allowed = [this, &no_ten](const Simplex& sigma)
        -> const SimplicialComplex& {
        return sigma == Simplex{0} ? no_ten : codomain_.complex();
    };
    problem_.fixed = {{0, 10}};
    EXPECT_FALSE(run("own-constraint").first);
}

TEST_F(CspSetupEdgeCases, FixedImagesViolatingTheCodomain) {
    // {12, 11} is not a codomain edge.
    problem_.fixed = {{0, 12}, {1, 11}};
    EXPECT_FALSE(run("violation").first);
}

TEST_F(CspSetupEdgeCases, FixedValuePrunedByAnotherFixedVertex) {
    // {10, 11} is a codomain edge, but the edge's constraint complex
    // leaves it out: fixing 0 to 10 prunes 1's fixed value 11.
    const SimplicialComplex without_edge = SimplicialComplex::from_facets(
        {Simplex{10, 13}, Simplex{12, 13}, Simplex{11}, Simplex{15}});
    problem_.allowed = [this, &without_edge](const Simplex& sigma)
        -> const SimplicialComplex& {
        return sigma.size() == 2 ? without_edge : codomain_.complex();
    };
    problem_.fixed = {{0, 10}, {1, 11}};
    EXPECT_FALSE(run("pruned-fixed").first);
    problem_.fixed = {{0, 10}, {1, 13}};
    EXPECT_TRUE(run("kept-fixed").first);
}

TEST_F(CspSetupEdgeCases, FreeVertexWipedByTheFixedOnes) {
    problem_.fixed = {{0, 12}};
    const SimplicialComplex no_edges = SimplicialComplex::from_facets(
        {Simplex{10}, Simplex{11}, Simplex{12}, Simplex{13}, Simplex{15}});
    problem_.allowed = [&no_edges](const Simplex&)
        -> const SimplicialComplex& { return no_edges; };
    EXPECT_FALSE(run("wipeout").first);
}

TEST(CspSetup, UnfilteredEmptyDomainIsNoRootConflict) {
    // Vertex 2 has no candidate of its color, but no fixed vertex
    // constrains it: that is the search's conflict to find, not root
    // propagation's.
    const ChromaticComplex domain(
        SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{2}}),
        {{0, 0}, {1, 1}, {2, 2}});
    const ChromaticComplex codomain(
        SimplicialComplex::from_facets({Simplex{10, 11}}),
        {{10, 0}, {11, 1}});
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = [&codomain](const Simplex&)
        -> const SimplicialComplex& { return codomain.complex(); };
    problem.fixed = {{0, 10}};
    Coverage coverage;
    compare_setup(problem, "unfiltered-empty", coverage);
    EXPECT_EQ(coverage.conflicts, 0u);
}

TEST(CspSetup, OrderTiesBreakBySmallestIdAcrossComponents) {
    // Two components separated by the fixed vertex 2, on a path
    // 0-1-2-3-4-5: the heap order must match the rescanning order,
    // including count ties and components numbered by their smallest
    // vertex.
    std::unordered_map<VertexId, topo::Color> colors;
    for (VertexId v = 0; v < 6; ++v) colors[v] = v % 2;
    const ChromaticComplex domain(
        SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{1, 2},
                                        Simplex{2, 3}, Simplex{3, 4},
                                        Simplex{4, 5}}),
        colors);
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &domain;
    problem.allowed = [&domain](const Simplex&)
        -> const SimplicialComplex& { return domain.complex(); };
    problem.fixed = {{2, 2}};
    const topo::AdjacencyIndex index(domain.complex());
    const Decomposition dec = csp_setup::decompose(problem, index);
    EXPECT_EQ(dec.component_orders,
              (std::vector<std::vector<VertexId>>{{1, 0}, {3, 4, 5}}));
    Coverage coverage;
    compare_setup(problem, "path", coverage);
}

TEST(CspSetup, SecondComponentWipedOutAfterTheFirstIsSearched) {
    // A path 0-1-2-3 with 2 fixed to 10: components {0, 1} and {3}. The
    // edge {0, 1} may not map onto {10, 11}, so the fast engine's first
    // try at vertex 1 (11) wipes out vertex 0: one backtrack. The edge
    // {2, 3} allows no edge image at all, so root propagation wipes out
    // vertex 3 — found only when component {3} is set up, after {0, 1}
    // was searched, whose backtrack then counts.
    const ChromaticComplex domain(
        SimplicialComplex::from_facets(
            {Simplex{0, 1}, Simplex{1, 2}, Simplex{2, 3}}),
        {{0, 0}, {1, 1}, {2, 0}, {3, 1}});
    const ChromaticComplex codomain(
        SimplicialComplex::from_facets(
            {Simplex{10, 11}, Simplex{10, 13}, Simplex{12, 13}}),
        {{10, 0}, {11, 1}, {12, 0}, {13, 1}});
    const SimplicialComplex without_ten_eleven =
        SimplicialComplex::from_facets(
            {Simplex{10, 13}, Simplex{12, 13}, Simplex{11}});
    const SimplicialComplex no_edges = SimplicialComplex::from_facets(
        {Simplex{10}, Simplex{11}, Simplex{12}, Simplex{13}});
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = [&](const Simplex& sigma) -> const SimplicialComplex& {
        if (sigma == Simplex{0, 1}) return without_ten_eleven;
        if (sigma == Simplex{2, 3}) return no_edges;
        return codomain.complex();
    };
    problem.fixed = {{2, 10}};

    const topo::AdjacencyIndex index(domain.complex());
    const Decomposition dec = csp_setup::decompose(problem, index);
    ASSERT_EQ(dec.component_orders,
              (std::vector<std::vector<VertexId>>{{1, 0}, {3}}));
    ConstraintTable constraints(problem, index.id_bound());
    const DomainLists fixed =
        csp_setup::initial_domains(problem, dec.fixed_order);
    csp_setup::FixedRoot root(problem, index, constraints, dec.fixed_order,
                              fixed);
    ASSERT_TRUE(root.check());
    DomainLists first =
        csp_setup::initial_domains(problem, dec.component_orders[0]);
    EXPECT_TRUE(root.propagate(dec.component_orders[0], first));
    EXPECT_EQ(first, (DomainLists{{11, 13}, {10, 12}}));
    DomainLists second =
        csp_setup::initial_domains(problem, dec.component_orders[1]);
    EXPECT_FALSE(root.propagate(dec.component_orders[1], second));
    Coverage coverage;
    compare_setup(problem, "second-component-wipeout", coverage);
    EXPECT_EQ(coverage.conflicts, 1u);

    const ChromaticMapResult fast =
        solve_chromatic_map(problem, SolverConfig::fast());
    const ChromaticMapResult naive =
        solve_chromatic_map(problem, SolverConfig::naive());
    EXPECT_FALSE(fast.map.has_value());
    EXPECT_FALSE(naive.map.has_value());
    EXPECT_TRUE(fast.exhausted);
    EXPECT_TRUE(naive.exhausted);
    EXPECT_EQ(fast.counters.backtracks, 1u);
}

// ---------------------------------------------------------------------------
// The carrier-mask allowed() of lt_approximation_problem.
// ---------------------------------------------------------------------------

/// The lookup the carrier-mask table replaced: Delta at the union of
/// sigma's vertex carriers, found in the task's carrier map.
const SimplicialComplex& carrier_union_allowed(
    const tasks::AffineTask& task, const TerminatingSubdivision& tsub,
    const Simplex& sigma) {
    Simplex carrier;
    for (VertexId v : sigma.vertices()) {
        carrier = carrier.union_with(tsub.stable_position(v).support());
    }
    return task.task.delta.at(carrier);
}

/// Every K(T) simplex of the scenario's subdivision gets the oracle's
/// complex (pointer-equal) from allowed(), with and without an
/// AllowedComplexLru (one too small to hold every face, so it evicts).
/// Returns the number of simplices checked.
std::size_t expect_carrier_mask_allowed(const std::string& name) {
    const auto scenario = engine::ScenarioRegistry::standard().find(name);
    EXPECT_TRUE(scenario.has_value()) << name;
    if (!scenario.has_value()) return 0;
    const std::unique_ptr<TerminatingSubdivision> tsub =
        build_subdivision(*scenario);
    AllowedComplexLru lru(2);
    std::size_t checked = 0;
    for (AllowedComplexLru* cache : {static_cast<AllowedComplexLru*>(nullptr),
                                     &lru}) {
        const ChromaticMapProblem problem = lt_approximation_problem(
            *scenario->affine, *tsub, false, LtGuidance::kNone, cache);
        std::size_t mismatched = 0;
        for (const Simplex& sigma : tsub->stable_complex().complex()
                                        .simplices()) {
            ++checked;
            if (&problem.allowed(sigma) !=
                &carrier_union_allowed(*scenario->affine, *tsub, sigma)) {
                ++mismatched;
            }
        }
        EXPECT_EQ(mismatched, 0u)
            << name << (cache == nullptr ? "" : " (through the LRU)");
    }
    return checked;
}

TEST(LtAllowed, CarrierMaskMatchesTheCarrierUnion) {
    EXPECT_GT(expect_carrier_mask_allowed("lt-2-1-res1"), 0u);
    EXPECT_GT(expect_carrier_mask_allowed("lt-2-2-res1"), 0u);
}

TEST(CspSetupHeavy, CarrierMaskMatchesTheCarrierUnionOnLt32Res2) {
    const char* run = std::getenv("GACT_RUN_HEAVY");
    if (run == nullptr || std::string(run) == "0") {
        GTEST_SKIP() << "set GACT_RUN_HEAVY=1 to run the heavy comparison";
    }
    // Both passes (plain and through the LRU) cover all 148,407 stable
    // simplices.
    EXPECT_EQ(expect_carrier_mask_allowed("lt-3-2-res2"), 2u * 148407u);
}

}  // namespace
}  // namespace gact::core
