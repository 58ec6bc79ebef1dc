// Witness -> executable protocol adapter: the bridge from a SolveReport
// (a topological witness) to a runtime::DecisionRule the execution
// runtime can run as n simulated processes.
//
// Wait-free route: eta : Chr^d I -> O is tabulated into a TableRule over
// depth-d views, interned in the rule's own arena, via the view <-> Chr^d
// vertex bijection (the same provenance recursion as
// core/protocol_to_map.h, extended to carry depth-0 input vertices for
// tasks with inputs). General route: the
// witness delta : K(T) -> L is wrapped into the on-the-fly view-local
// landing rule, which covers any admissible schedule — not only the
// compact run family the engine enumerated for admissibility.
#pragma once

#include <memory>

#include "engine/engine.h"
#include "runtime/executor.h"

namespace gact::engine {

/// Build the executable decision rule for a solvable report's witness.
/// Requires report.solvable() with the route artifacts present
/// (wf_domain for the wait-free route, tsub for the general route).
std::unique_ptr<runtime::DecisionRule> make_decision_rule(
    const Scenario& scenario, const SolveReport& report);

}  // namespace gact::engine
