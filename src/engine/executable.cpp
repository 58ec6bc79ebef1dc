#include "engine/executable.h"

#include "iis/projection.h"
#include "util/require.h"

namespace gact::engine {

namespace {

/// core::view_of_vertex with inputs: the depth-0 view of a Chr^0 vertex
/// carries that vertex as its input (Section 4.3) when the task has a
/// non-trivial input complex, matching the views the executor's
/// processes build from their assigned input vertices.
iis::ViewId view_of_vertex(iis::SubdivisionChain& chain,
                           iis::ViewArena& arena, std::size_t k,
                           topo::VertexId vertex, bool with_inputs) {
    const topo::SubdividedComplex& level = chain.level(k);
    if (k == 0) {
        return arena.make_initial(
            level.complex().color(vertex),
            with_inputs ? std::optional<topo::VertexId>(vertex)
                        : std::nullopt);
    }
    const topo::SubdividedComplex::Provenance& prov =
        level.provenance(vertex);
    std::vector<iis::ViewId> seen;
    seen.reserve(prov.parent_simplex.size());
    for (topo::VertexId w : prov.parent_simplex.vertices()) {
        seen.push_back(view_of_vertex(chain, arena, k - 1, w, with_inputs));
    }
    return arena.make_view(level.complex().color(vertex), seen);
}

}  // namespace

std::unique_ptr<runtime::DecisionRule> make_decision_rule(
    const Scenario& scenario, const SolveReport& report) {
    require(report.solvable() && report.witness.has_value(),
            "make_decision_rule: report carries no witness");
    if (scenario.is_wait_free()) {
        require(report.witness_depth >= 0 && report.wf_domain.has_value(),
                "make_decision_rule: wait-free report without domain");
        const std::size_t d = static_cast<std::size_t>(report.witness_depth);
        auto table = std::make_unique<runtime::TableRule>(
            "eta@" + std::to_string(d) + "(" + scenario.name + ")", d);
        iis::SubdivisionChain chain(scenario.task.inputs);
        const bool with_inputs = !scenario.task.is_inputless();
        for (topo::VertexId v : chain.level(d).complex().vertex_ids()) {
            require(report.witness->is_defined_at(v),
                    "make_decision_rule: witness undefined at a Chr^" +
                        std::to_string(d) + " vertex");
            table->insert(
                view_of_vertex(chain, table->arena(), d, v, with_inputs),
                report.witness->apply(v));
        }
        return table;
    }
    require(report.tsub != nullptr,
            "make_decision_rule: general report without subdivision");
    return std::make_unique<runtime::LandingDecisionRule>(report.tsub,
                                                          *report.witness);
}

}  // namespace gact::engine
