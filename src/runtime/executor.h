// The execution engine: run a witness-backed decision rule as n simulated
// processes over the shared-memory IIS substrate (src/sm/), one schedule
// at a time, and check what comes out against Definition 4.1.
//
// Where protocol/verifier.h checks a finite *table* against the compact
// run families the engine enumerated, the executor checks the *behavior*:
// it drives sm::IisExecution round by round (run_partition_round realizes
// each ordered partition exactly, re-read from the boards), queries the
// decision rule on the views the substrate actually produced, and records
// every violation of the protocol conditions — decision stability, output
// colors, and outputs landing inside Delta of the participants' inputs.
// Rules are arena-independent: a table rule looks a view up structurally
// in its own arena (ViewArena::find_equal), so executions can run in
// parallel with private arenas and still agree bit-for-bit.
//
// An Executor owns the per-execution state — the view arena, the SM
// boards, the analytic view and position rows — and resets it at the
// start of every run, so a fuzz worker keeps one and reuses its storage
// for every schedule it executes.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/terminating_subdivision.h"
#include "protocol/gact_protocol.h"
#include "runtime/schedule.h"
#include "sm/iis_executor.h"
#include "tasks/task.h"
#include "topology/geometry.h"

namespace gact::runtime {

/// A decision rule: the executable form of a protocol. The executor asks
/// it, after every round, what each participating process decides given
/// the view the substrate just handed it.
class DecisionRule {
public:
    virtual ~DecisionRule() = default;

    virtual std::string name() const = 0;

    /// True when decide() reads `seen_positions` (the exact barycentric
    /// positions of the views in the process's last snapshot) — lets the
    /// executor skip the rational arithmetic for table rules.
    virtual bool needs_positions() const = 0;

    /// The decision of p after round k (k = 0: initial view, no
    /// snapshot), or nullopt to withhold. Must be a function of the view
    /// (and through it the round count), never of executor state.
    virtual std::optional<topo::VertexId> decide(
        ProcessId p, std::size_t k, iis::ViewId view,
        const iis::ViewArena& arena,
        const std::vector<topo::BaryPoint>& seen_positions) const = 0;
};

/// Wait-free witnesses as a rule: a finite table from depth-d views to
/// outputs (eta of Corollary 7.1 via the view <-> Chr^d vertex
/// bijection), the views interned in the rule's own arena. At depth
/// k > d a process decides on its *own* depth-d sub-view — the "remember
/// your round-d state" protocol — which makes decisions stable by
/// construction; below depth d it withholds.
class TableRule final : public DecisionRule {
public:
    TableRule(std::string name, std::size_t depth)
        : name_(std::move(name)), depth_(depth) {}

    /// The arena the table's views live in: intern a view here, then
    /// insert() it.
    iis::ViewArena& arena() noexcept { return arena_; }

    /// Map `view`, a depth-d view of arena(), to `output`.
    void insert(iis::ViewId view, topo::VertexId output);

    std::size_t size() const noexcept { return size_; }
    std::size_t depth() const noexcept { return depth_; }

    std::string name() const override { return name_; }
    bool needs_positions() const override { return false; }
    std::optional<topo::VertexId> decide(
        ProcessId p, std::size_t k, iis::ViewId view,
        const iis::ViewArena& arena,
        const std::vector<topo::BaryPoint>& seen_positions) const override;

private:
    std::string name_;
    std::size_t depth_;
    iis::ViewArena arena_;
    /// Output per view id of arena_ (nullopt: not a table entry).
    std::vector<std::optional<topo::VertexId>> outputs_;
    std::size_t size_ = 0;
};

/// General-route witnesses as a rule: the view-local landing rule of
/// protocol extraction (protocol::ViewLandingRule) applied on the fly, so
/// it covers *any* admissible schedule, not just the compact run family
/// the engine tabulated. Owns its delta copy and shares the subdivision.
class LandingDecisionRule final : public DecisionRule {
public:
    LandingDecisionRule(
        std::shared_ptr<const core::TerminatingSubdivision> tsub,
        core::SimplicialMap delta);

    std::string name() const override { return "landing-rule"; }
    bool needs_positions() const override { return true; }
    std::optional<topo::VertexId> decide(
        ProcessId p, std::size_t k, iis::ViewId view,
        const iis::ViewArena& arena,
        const std::vector<topo::BaryPoint>& seen_positions) const override;

private:
    std::shared_ptr<const core::TerminatingSubdivision> tsub_;
    core::SimplicialMap delta_;
    protocol::ViewLandingRule rule_;
};

struct ExecutionConfig {
    /// Hard round cap: an execution still undecided here is a "never
    /// decides" violation.
    std::size_t horizon = 24;
    /// Extra cycle rounds executed after every infinite participant has
    /// decided, to exercise decision stability past the landing point.
    std::size_t stability_tail = 2;
    /// Cross-check every substrate view against the analytic one (the
    /// row of Run::view_table, built as each round executes) — the
    /// SM -> IIS simulation check, per executed round.
    bool check_views = true;
};

struct ExecutionResult {
    /// Definition 4.1 violations (empty on a clean execution).
    std::vector<std::string> violations;
    /// Final decision per process (nullopt: never decided / not
    /// participating).
    std::vector<std::optional<topo::VertexId>> outputs;
    /// Rounds actually executed.
    std::size_t rounds = 0;
    /// Every infinitely participating process decided within the horizon.
    bool all_decided = false;

    friend bool operator==(const ExecutionResult&,
                           const ExecutionResult&) = default;
};

/// Executes rules under schedules, reusing its storage from one run to
/// the next. Not thread-safe: give each thread its own.
class Executor {
public:
    Executor() = default;
    // The SM execution points into the arena.
    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    /// Execute `rule` under `schedule` on the SM substrate and check the
    /// protocol conditions. `inputs[p]` is p's input vertex (nullopt
    /// everywhere for inputless tasks); `allowed` is Delta(omega ∩
    /// chi^{-1}(participants)) — exactly the simplex set the verifier
    /// uses for condition (2). The result depends on the arguments only,
    /// never on earlier runs (one that threw included).
    ExecutionResult run(const tasks::Task& task, const DecisionRule& rule,
                        const Schedule& schedule,
                        const std::vector<std::optional<topo::VertexId>>& inputs,
                        const topo::SimplicialComplex& allowed,
                        const ExecutionConfig& config = {});

private:
    iis::ViewArena arena_;
    sm::IisExecution exec_{0, ProcessSet(), arena_};
    // Analytic companions of the substrate execution, one row per round:
    // the SM -> IIS view cross-check and the landing rule's positions.
    std::vector<std::optional<iis::ViewId>> expected_;
    std::vector<std::optional<iis::ViewId>> expected_next_;
    std::vector<std::optional<topo::BaryPoint>> positions_;
    std::vector<std::optional<topo::BaryPoint>> positions_next_;
    std::vector<topo::BaryPoint> seen_;
};

/// One run on a fresh Executor.
ExecutionResult execute(const tasks::Task& task, const DecisionRule& rule,
                        const Schedule& schedule,
                        const std::vector<std::optional<topo::VertexId>>& inputs,
                        const topo::SimplicialComplex& allowed,
                        const ExecutionConfig& config = {});

}  // namespace gact::runtime
