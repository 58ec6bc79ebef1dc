// Protocol extraction from a GACT witness (Theorem 6.1, "<=" direction).
//
// Given a terminating subdivision T admissible for a model M and a
// chromatic map delta : K(T) -> O with delta(tau) in Delta(sigma) for
// stable tau, |tau| ⊆ |sigma|, the proof assigns outputs when a run lands
// in a stable simplex (|sigma_k| ⊆ |tau|). A protocol, however, must be a
// function of each process's *view* (Definition 4.1), and the same view
// occurs in runs that land in different stable simplices — the proof's
// "(necessarily the same as before)" parenthetical is where this is
// glossed. We therefore decide by the view-local landing rule: process p
// decides on the minimal stable simplex tau that contains the exact
// positions of *everything p saw in its last snapshot*, has stabilized by
// the current depth, and carries p's color. A process that still sees a
// laggard outside K(T) withholds, which is precisely what makes decisions
// stable across overlapping runs (found by the depth-2 run-family stress
// test; see DESIGN.md §5). The resulting finite view->output table is
// conflict-free by construction and is re-verified against Definition 4.1
// by protocol/verifier.h.
#pragma once

#include "core/lt_pipeline.h"
#include "core/stable_index.h"
#include "protocol/protocol.h"

namespace gact::protocol {

/// The view-local landing rule ("rule D") as a reusable decision
/// procedure: at depth k, process p decides the color-p vertex of
/// delta(tau), where tau is the minimal stable simplex that (i)
/// stabilized by stage <= k, (ii) contains the exact positions of *all*
/// the (k-1)-views p saw in round k (the snapshot hull), and (iii)
/// carries p's color; it withholds otherwise. This is the rule
/// build_gact_protocol tabulates over a finite run family — exposed so
/// the execution runtime (src/runtime/) can apply it on the fly to any
/// admissible schedule, including ones outside the enumerated compact
/// family. The candidates are scanned by ascending dimension through a
/// core::StableSimplexIndex built once here, so concurrent value() calls
/// are pure reads. The referenced tsub and delta must outlive the rule.
class ViewLandingRule {
public:
    ViewLandingRule(const core::TerminatingSubdivision& tsub,
                    const core::SimplicialMap& delta);

    /// The decision of process p after round k (1-indexed), given the
    /// exact positions of everything p saw in its round-k snapshot.
    std::optional<topo::VertexId> value(
        gact::ProcessId p, std::size_t k,
        const std::vector<topo::BaryPoint>& seen_positions) const;

private:
    const core::TerminatingSubdivision* tsub_;
    const core::SimplicialMap* delta_;
    core::Simplex base_face_;  // every base vertex: no carrier filter
    core::StableSimplexIndex index_;
};

/// The extracted protocol plus construction diagnostics.
struct GactProtocolBuild {
    TableProtocol protocol{"gact"};
    std::size_t conflicts = 0;     // must be 0 for a sound witness
    std::size_t landed_runs = 0;
    std::size_t total_runs = 0;
    std::size_t max_landing_round = 0;
};

/// Build the table protocol for the runs in `runs`, filling entries for
/// rounds landing..horizon of every run.
GactProtocolBuild build_gact_protocol(const core::TerminatingSubdivision& tsub,
                                      const core::SimplicialMap& delta,
                                      const std::vector<iis::Run>& runs,
                                      std::size_t horizon, ViewArena& arena);

}  // namespace gact::protocol
