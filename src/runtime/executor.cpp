#include "runtime/executor.h"

#include <algorithm>

#include "iis/projection.h"
#include "util/require.h"

namespace gact::runtime {

void TableRule::insert(iis::ViewId view, topo::VertexId output) {
    require(static_cast<std::size_t>(arena_.node(view).depth) == depth_,
            "TableRule: entry view is not at the table's depth");
    if (outputs_.size() <= view) outputs_.resize(view + 1);
    if (!outputs_[view].has_value()) ++size_;
    outputs_[view] = output;
}

std::optional<topo::VertexId> TableRule::decide(
    ProcessId p, std::size_t /*k*/, iis::ViewId view,
    const iis::ViewArena& arena,
    const std::vector<topo::BaryPoint>& /*seen_positions*/) const {
    if (static_cast<std::size_t>(arena.node(view).depth) < depth_) {
        return std::nullopt;
    }
    // Descend p's own sub-view chain to depth d (p always sees itself).
    iis::ViewId current = view;
    while (static_cast<std::size_t>(arena.node(current).depth) > depth_) {
        const iis::ViewNode node = arena.node(current);
        bool found = false;
        for (iis::ViewId s : node.seen) {
            if (arena.node(s).owner == p) {
                current = s;
                found = true;
                break;
            }
        }
        if (!found) {
            throw invariant_error("TableRule: view of p" + std::to_string(p) +
                                  " has no own sub-view");
        }
    }
    const std::optional<iis::ViewId> entry = arena_.find_equal(arena, current);
    if (!entry.has_value() || *entry >= outputs_.size()) return std::nullopt;
    return outputs_[*entry];
}

LandingDecisionRule::LandingDecisionRule(
    std::shared_ptr<const core::TerminatingSubdivision> tsub,
    core::SimplicialMap delta)
    : tsub_(std::move(tsub)),
      delta_(std::move(delta)),
      rule_(*tsub_, delta_) {
    require(tsub_ != nullptr, "LandingDecisionRule: null subdivision");
}

std::optional<topo::VertexId> LandingDecisionRule::decide(
    ProcessId p, std::size_t k, iis::ViewId /*view*/,
    const iis::ViewArena& /*arena*/,
    const std::vector<topo::BaryPoint>& seen_positions) const {
    if (k == 0) return std::nullopt;  // no snapshot taken yet
    return rule_.value(p, k, seen_positions);
}

ExecutionResult Executor::run(
    const tasks::Task& task, const DecisionRule& rule,
    const Schedule& schedule,
    const std::vector<std::optional<topo::VertexId>>& inputs,
    const topo::SimplicialComplex& allowed, const ExecutionConfig& config) {
    const std::uint32_t n = task.num_processes;
    require(schedule.num_processes == n,
            "execute: schedule process count does not match task");
    require(inputs.size() == n, "execute: inputs size mismatch");
    require(config.horizon >= 1, "execute: zero horizon");

    schedule.validate();
    const ProcessSet participants = schedule.participants();
    const ProcessSet infinite = schedule.cycle.support();

    ExecutionResult result;
    result.outputs.assign(n, std::nullopt);
    const auto violation = [&result](const std::string& what) {
        result.violations.push_back(what);
    };

    // Every run starts from an empty arena and fresh boards, whatever
    // the previous run left behind.
    arena_.clear();
    exec_.reset(n, participants, &inputs);

    // Analytic companions of the substrate execution: positions feed the
    // landing rule; the view rows are the SM -> IIS cross-check.
    //
    // Positions are advanced lazily, one row per executed round, never
    // the whole horizon up front: each round divides denominators by
    // another (2c-1), so a full-horizon table can overflow the exact
    // rational arithmetic even though every admissible run lands (and
    // the execution stops) rounds earlier. `positions_` holds row
    // `pos_row` of iis::view_positions' table.
    const bool use_positions = rule.needs_positions();
    std::size_t pos_row = 0;
    if (use_positions) {
        positions_.assign(n, std::nullopt);
        for (ProcessId p : participants.members()) {
            positions_[p] = topo::BaryPoint::vertex(
                inputs[p].value_or(static_cast<topo::VertexId>(p)));
        }
    }
    const auto advance_positions = [this, &schedule, &pos_row] {
        iis::next_view_positions(schedule.round(pos_row), positions_,
                                 positions_next_);
        positions_.swap(positions_next_);
        ++pos_row;
    };
    // The SM -> IIS cross-check: row k of Run::view_table, built from row
    // k-1 as round k executes, so only the rounds that run are interned.
    if (config.check_views) {
        iis::initial_view_row(n, arena_, &inputs, expected_);
    }

    ProcessSet decided_ever;
    const auto record = [&](ProcessId p, std::size_t k,
                            std::optional<topo::VertexId> out) {
        if (!out.has_value()) {
            if (decided_ever.contains(p)) {
                violation("p" + std::to_string(p) + " un-decided at round " +
                          std::to_string(k));
            }
            return;
        }
        if (decided_ever.contains(p) && *result.outputs[p] != *out) {
            violation("p" + std::to_string(p) + " changed decision at round " +
                      std::to_string(k));
        }
        if (!decided_ever.contains(p) && task.outputs.color(*out) != p) {
            violation("p" + std::to_string(p) + " decided a vertex of color " +
                      std::to_string(task.outputs.color(*out)));
        }
        result.outputs[p] = out;
        decided_ever = decided_ever.with(p);
    };

    const auto all_infinite_decided = [&] {
        return decided_ever.contains_all(infinite);
    };

    // Round 0: initial views (a depth-0 table rule decides here). `seen_`
    // holds the positions a round's snapshot sees, none before round 1.
    seen_.clear();
    for (ProcessId p : participants) {
        record(p, 0, rule.decide(p, 0, exec_.view_of(p), arena_, seen_));
    }

    std::optional<std::size_t> decided_at;
    if (all_infinite_decided()) decided_at = 0;
    std::size_t k = 0;
    bool overflowed = false;
    while (k < config.horizon) {
        // Stop once the whole prefix ran, everyone (still running)
        // decided, and the stability tail has been exercised.
        if (decided_at.has_value() && k >= schedule.prefix.size() &&
            k >= *decided_at + config.stability_tail) {
            break;
        }
        ++k;
        if (use_positions && pos_row < k - 1) {
            // Bring the row to k-1 (the positions of the views the round-k
            // snapshots see). A run that keeps subdividing past the exact
            // arithmetic's range has failed to land: report, stop driving.
            try {
                advance_positions();
            } catch (const gact::overflow_error&) {
                violation("position arithmetic overflowed at round " +
                          std::to_string(k) + " before every process decided");
                --k;
                break;
            }
        }
        const iis::OrderedPartition& round = schedule.round(k - 1);
        if (config.check_views) {
            iis::next_view_row(round, expected_, arena_, expected_next_);
            expected_.swap(expected_next_);
        }
        exec_.run_partition_round(round);
        for (ProcessId p : round.support()) {
            const iis::ViewId view = exec_.view_of(p);
            if (config.check_views) {
                ensure(expected_[p].has_value(),
                       "execute: analytic view row missing entry");
                if (*expected_[p] != view) {
                    violation("p" + std::to_string(p) +
                              " substrate view differs from run semantics "
                              "at round " +
                              std::to_string(k));
                }
            }
            seen_.clear();
            if (use_positions) {
                for (ProcessId q : round.snapshot_of(p)) {
                    ensure(positions_[q].has_value(),
                           "execute: missing position for seen process");
                    seen_.push_back(*positions_[q]);
                }
            }
            try {
                record(p, k, rule.decide(p, k, view, arena_, seen_));
            } catch (const gact::overflow_error&) {
                // Containment tests on ever-finer positions can exhaust
                // the exact arithmetic too; same report as above.
                violation("position arithmetic overflowed at round " +
                          std::to_string(k) +
                          " before every process decided");
                overflowed = true;
                break;
            }
        }
        if (overflowed) break;
        if (!decided_at.has_value() && all_infinite_decided()) {
            decided_at = k;
        }
    }
    result.rounds = k;
    result.all_decided = decided_at.has_value();
    if (!decided_at.has_value()) {
        for (ProcessId p : infinite) {
            if (!decided_ever.contains(p)) {
                violation("infinitely participating p" + std::to_string(p) +
                          " never decides (horizon " +
                          std::to_string(config.horizon) + ")");
            }
        }
    }

    // Condition (2): the produced outputs must form an allowed simplex.
    topo::Simplex produced;
    for (ProcessId p = 0; p < n; ++p) {
        if (result.outputs[p].has_value()) {
            produced = produced.with(*result.outputs[p]);
        }
    }
    if (!produced.empty() && !allowed.contains(produced)) {
        violation("outputs " + produced.to_string() + " not allowed for " +
                  participants.to_string());
    }
    return result;
}

ExecutionResult execute(const tasks::Task& task, const DecisionRule& rule,
                        const Schedule& schedule,
                        const std::vector<std::optional<topo::VertexId>>& inputs,
                        const topo::SimplicialComplex& allowed,
                        const ExecutionConfig& config) {
    return Executor{}.run(task, rule, schedule, inputs, allowed, config);
}

}  // namespace gact::runtime
