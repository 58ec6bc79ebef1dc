#include "protocol/gact_protocol.h"

#include <unordered_map>

#include "iis/projection.h"
#include "util/require.h"

namespace gact::protocol {

namespace {

/// Every stable simplex of K(T), one list per dimension, each list in the
/// stable complex's slot order.
std::vector<std::vector<core::Simplex>> slot_order_by_dimension(
    const core::TerminatingSubdivision& tsub) {
    const auto& complex = tsub.stable_complex().complex();
    std::vector<std::vector<core::Simplex>> by_dimension(
        static_cast<std::size_t>(complex.dimension() + 1));
    for (const core::Simplex& s : complex.simplices()) {
        by_dimension[static_cast<std::size_t>(s.dimension())].push_back(s);
    }
    return by_dimension;
}

}  // namespace

// Using the whole snapshot hull — not just p's own position — is what
// makes the rule sound: a process that still sees a laggard outside every
// stable simplex knows the run has not landed and must not decide yet,
// even if its own position transits a stable region (see DESIGN.md §5
// and the depth-2 regression tests).
ViewLandingRule::ViewLandingRule(const core::TerminatingSubdivision& tsub,
                                 const core::SimplicialMap& delta)
    : tsub_(&tsub),
      delta_(&delta),
      base_face_(tsub.base().vertex_ids()),
      index_(tsub, slot_order_by_dimension(tsub)) {}

std::optional<topo::VertexId> ViewLandingRule::value(
    gact::ProcessId p, std::size_t k,
    const std::vector<topo::BaryPoint>& seen_positions) const {
    for (std::size_t d = 0; d < index_.dimensions(); ++d) {
        const core::Simplex* tau =
            index_.locate(d, base_face_, seen_positions);
        if (tau == nullptr) continue;
        // tau is the carrier of the snapshot hull (minimal by the
        // dimension-ascending scan): decide or withhold on it.
        if (tsub_->stable_since(*tau) > k) return std::nullopt;
        const auto& stable = tsub_->stable_complex();
        if (!stable.colors_of(*tau).contains(p)) return std::nullopt;
        return delta_->apply(stable.vertex_with_color(*tau, p));
    }
    return std::nullopt;
}

GactProtocolBuild build_gact_protocol(const core::TerminatingSubdivision& tsub,
                                      const core::SimplicialMap& delta,
                                      const std::vector<iis::Run>& runs,
                                      std::size_t horizon, ViewArena& arena) {
    GactProtocolBuild build;
    build.protocol = TableProtocol("gact(" + std::to_string(runs.size()) +
                                   " runs)");
    const ViewLandingRule rule(tsub, delta);

    const int n = tsub.base().dimension();
    std::vector<topo::VertexId> inputs;
    for (int i = 0; i <= n; ++i) inputs.push_back(static_cast<topo::VertexId>(i));

    // The rule is a function of the view alone (the snapshot contents and
    // the depth are part of the view), so results are memoized per view.
    std::unordered_map<ViewId, std::optional<topo::VertexId>> memo;

    for (const iis::Run& run : runs) {
        ++build.total_runs;
        const auto views = run.view_table(horizon, arena);
        const auto positions = iis::view_positions(run, horizon, inputs);
        gact::ProcessSet decided;
        std::size_t first_decision_round = 0;
        for (std::size_t k = 1; k <= horizon; ++k) {
            const iis::OrderedPartition& round = run.round(k - 1);
            for (gact::ProcessId p : round.support().members()) {
                ensure(views[k][p].has_value(),
                       "build_gact_protocol: missing view");
                const ViewId view = *views[k][p];
                auto it = memo.find(view);
                if (it == memo.end()) {
                    std::vector<topo::BaryPoint> seen;
                    for (gact::ProcessId q : round.snapshot_of(p).members()) {
                        ensure(positions[k - 1][q].has_value(),
                               "build_gact_protocol: missing position");
                        seen.push_back(*positions[k - 1][q]);
                    }
                    it = memo.emplace(view, rule.value(p, k, seen)).first;
                }
                if (!it->second.has_value()) continue;
                if (!build.protocol.insert(view, *it->second)) {
                    ++build.conflicts;
                }
                if (decided.empty()) first_decision_round = k;
                decided = decided.with(p);
            }
        }
        // A run counts as landed when every infinitely participating
        // process decided within the horizon.
        if (decided.contains_all(run.infinite_participants())) {
            ++build.landed_runs;
            build.max_landing_round =
                std::max(build.max_landing_round, first_decision_round);
        }
    }
    return build;
}

}  // namespace gact::protocol
