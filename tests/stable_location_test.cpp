// Oracle agreement for indexed stable-simplex location
// (core/stable_index.h). find_landing, check_admissibility and the
// protocol's view-local landing rule must answer exactly as the plain
// scans they replaced — every stable simplex tried in order with exact
// rational containment — which this file keeps as the oracles: same
// landing round, same stable simplex, same output round, same decision,
// on every quick-grid run and every view of the fuzzed scenarios.
#include "core/stable_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "engine/engine.h"
#include "engine/scenario_registry.h"
#include "iis/projection.h"
#include "protocol/gact_protocol.h"
#include "runtime/fuzz.h"

namespace gact {
namespace {

using core::Landing;
using core::Simplex;
using core::TerminatingSubdivision;
using engine::Engine;
using engine::Scenario;
using engine::SolveReport;

const SolveReport& solved(const Scenario& scenario) {
    static std::map<std::string, SolveReport> cache;
    auto it = cache.find(scenario.name);
    if (it == cache.end()) {
        it = cache.emplace(scenario.name, Engine().solve(scenario)).first;
    }
    return it->second;
}

Scenario find(const std::string& name) {
    const auto s = engine::ScenarioRegistry::standard().find(name);
    if (!s.has_value()) throw std::runtime_error("unknown scenario " + name);
    return *s;
}

std::vector<topo::VertexId> inputs_of(const TerminatingSubdivision& tsub) {
    std::vector<topo::VertexId> inputs;
    for (int i = 0; i <= tsub.base().dimension(); ++i) {
        inputs.push_back(static_cast<topo::VertexId>(i));
    }
    return inputs;
}

/// The scan find_landing ran before the index: the sorted stable
/// simplices of the participation dimension whose carrier is a face of
/// the participation face, each tried with exact containment per round.
/// `containing`, when given, receives how many candidates contain
/// sigma_k at the landing round (more than one is a tie).
std::optional<Landing> scan_landing(const TerminatingSubdivision& tsub,
                                    const iis::Run& run,
                                    std::size_t max_round,
                                    std::size_t* containing = nullptr) {
    std::vector<topo::VertexId> face_verts;
    for (ProcessId p : run.participants().members()) {
        face_verts.push_back(static_cast<topo::VertexId>(p));
    }
    const Simplex face{face_verts};
    std::vector<Simplex> candidates;
    for (const Simplex& tau :
         tsub.stable_complex().complex().simplices_of_dimension(
             face.dimension())) {
        if (tsub.stable_carrier(tau).is_face_of(face)) {
            candidates.push_back(tau);
        }
    }
    const auto inputs = inputs_of(tsub);
    for (std::size_t k = 1; k <= max_round; ++k) {
        const auto points = iis::run_simplex_positions(run, k, inputs);
        std::optional<Landing> first;
        std::size_t count = 0;
        for (const Simplex& tau : candidates) {
            if (!tsub.stable_simplex_contains(tau, points)) continue;
            ++count;
            if (!first.has_value()) {
                first = Landing{k, tau, std::max(k, tsub.stable_since(tau))};
            }
        }
        if (first.has_value()) {
            if (containing != nullptr) *containing = count;
            return first;
        }
    }
    return std::nullopt;
}

/// The scan ViewLandingRule::value ran before the index: every stable
/// simplex by ascending dimension, in slot order within a dimension.
class ScanViewRule {
public:
    ScanViewRule(const TerminatingSubdivision& tsub,
                 const core::SimplicialMap& delta)
        : tsub_(&tsub), delta_(&delta) {
        const auto& complex = tsub.stable_complex().complex();
        by_dimension_.resize(
            static_cast<std::size_t>(complex.dimension() + 1));
        for (const Simplex& s : complex.simplices()) {
            by_dimension_[static_cast<std::size_t>(s.dimension())]
                .push_back(s);
        }
    }

    std::optional<topo::VertexId> value(
        ProcessId p, std::size_t k,
        const std::vector<topo::BaryPoint>& seen) const {
        Simplex support;
        for (const topo::BaryPoint& q : seen) {
            support = support.union_with(q.support());
        }
        for (const auto& group : by_dimension_) {
            for (const Simplex& tau : group) {
                if (!support.is_face_of(tsub_->stable_carrier(tau))) continue;
                if (!tsub_->stable_simplex_contains(tau, seen)) continue;
                if (tsub_->stable_since(tau) > k) return std::nullopt;
                const auto& stable = tsub_->stable_complex();
                if (!stable.colors_of(tau).contains(p)) return std::nullopt;
                return delta_->apply(stable.vertex_with_color(tau, p));
            }
        }
        return std::nullopt;
    }

private:
    const TerminatingSubdivision* tsub_;
    const core::SimplicialMap* delta_;
    std::vector<std::vector<Simplex>> by_dimension_;
};

/// The scan's landing for every model run of every quick-grid cell that
/// has a terminating subdivision, in model_runs order; computed once.
struct ScannedCell {
    Scenario scenario;
    const SolveReport* report;
    std::vector<std::optional<Landing>> landings;
};

const std::vector<ScannedCell>& scanned_grid() {
    static const std::vector<ScannedCell> cells = [] {
        std::vector<ScannedCell> out;
        for (const Scenario& scenario :
             engine::ScenarioRegistry::standard().quick_grid()) {
            const SolveReport& report = solved(scenario);
            if (report.tsub == nullptr) continue;
            ScannedCell cell{scenario, &report, {}};
            for (const iis::Run& run : report.model_runs) {
                cell.landings.push_back(scan_landing(
                    *report.tsub, run, scenario.options.max_landing_round));
            }
            out.push_back(std::move(cell));
        }
        return out;
    }();
    return cells;
}

/// One question to the view-local rule: process p after round k, with
/// the exact positions of everything p saw in its round-k snapshot.
using ViewQuery =
    std::tuple<ProcessId, std::size_t, std::vector<topo::BaryPoint>>;

void expect_same_landing(const std::optional<Landing>& got,
                         const std::optional<Landing>& want,
                         const std::string& where) {
    ASSERT_EQ(got.has_value(), want.has_value()) << where;
    if (!want.has_value()) return;
    EXPECT_EQ(got->round, want->round) << where;
    EXPECT_EQ(got->stable_facet, want->stable_facet) << where;
    EXPECT_EQ(got->output_round, want->output_round) << where;
}

TEST(StableLocation, FindLandingMatchesTheScanOnEveryQuickGridRun) {
    std::size_t runs = 0;
    for (const ScannedCell& cell : scanned_grid()) {
        const std::size_t horizon = cell.scenario.options.max_landing_round;
        const auto& model_runs = cell.report->model_runs;
        for (std::size_t i = 0; i < model_runs.size(); ++i) {
            ++runs;
            expect_same_landing(
                core::find_landing(*cell.report->tsub, model_runs[i],
                                   horizon),
                cell.landings[i],
                cell.scenario.name + " " + model_runs[i].to_string());
        }
    }
    EXPECT_FALSE(scanned_grid().empty());
    EXPECT_GT(runs, 0u);
}

TEST(StableLocation, AdmissibilityReportsMatchTheScan) {
    for (const ScannedCell& cell : scanned_grid()) {
        const SolveReport& report = *cell.report;
        core::AdmissibilityReport want;
        want.admissible = true;
        for (std::size_t i = 0; i < report.model_runs.size(); ++i) {
            ++want.runs_checked;
            const auto& landing = cell.landings[i];
            if (!landing.has_value()) {
                want.admissible = false;
                want.failures.push_back(report.model_runs[i]);
            } else {
                want.max_landing_round =
                    std::max(want.max_landing_round, landing->round);
            }
        }
        const core::AdmissibilityReport got = core::check_admissibility(
            *report.tsub, report.model_runs,
            cell.scenario.options.max_landing_round);
        const std::string& name = cell.scenario.name;
        EXPECT_EQ(got.admissible, want.admissible) << name;
        EXPECT_EQ(got.runs_checked, want.runs_checked) << name;
        EXPECT_EQ(got.max_landing_round, want.max_landing_round) << name;
        EXPECT_TRUE(got.failures == want.failures) << name;
    }
    EXPECT_FALSE(scanned_grid().empty());
}

TEST(StableLocation, ViewRuleMatchesTheScanUpToTheFuzzHorizon) {
    // Every view of every model run, round by round as the executor
    // drives a fuzzed schedule: up to the fuzz horizon, or until every
    // infinite participant has decided and the stability tail ran.
    const runtime::FuzzConfig fuzz;
    for (const char* name : {"is-2-of1", "lt-2-1-res1"}) {
        const Scenario scenario = find(name);
        const SolveReport& report = solved(scenario);
        ASSERT_TRUE(report.solvable()) << name;
        ASSERT_NE(report.tsub, nullptr) << name;
        const TerminatingSubdivision& tsub = *report.tsub;
        const protocol::ViewLandingRule rule(tsub, *report.witness);
        const ScanViewRule oracle(tsub, *report.witness);
        const auto inputs = inputs_of(tsub);
        // Runs share prefixes, so most views recur: compare each distinct
        // query once.
        std::map<ViewQuery, std::optional<topo::VertexId>> answered;
        std::size_t decisions = 0;
        for (const iis::Run& run : report.model_runs) {
            const std::size_t horizon = run.prefix().size() +
                                        scenario.options.max_landing_round +
                                        fuzz.horizon_slack;
            auto row = iis::view_positions(run, 0, inputs)[0];
            ProcessSet decided;
            std::optional<std::size_t> decided_at;
            for (std::size_t k = 1; k <= horizon; ++k) {
                if (decided_at.has_value() && k > run.prefix().size() &&
                    k > *decided_at + fuzz.stability_tail) {
                    break;
                }
                if (k > 1) row = iis::next_view_positions(run, k - 1, row);
                const iis::OrderedPartition& round = run.round(k - 1);
                for (ProcessId p : round.support().members()) {
                    std::vector<topo::BaryPoint> seen;
                    for (ProcessId q : round.snapshot_of(p).members()) {
                        seen.push_back(*row[q]);
                    }
                    ViewQuery query{p, k, std::move(seen)};
                    auto it = answered.find(query);
                    if (it == answered.end()) {
                        const auto& pts = std::get<2>(query);
                        const auto got = rule.value(p, k, pts);
                        ASSERT_EQ(got, oracle.value(p, k, pts))
                            << name << " " << run.to_string() << " p" << p
                            << " k=" << k;
                        if (got.has_value()) ++decisions;
                        it = answered.emplace(std::move(query), got).first;
                    }
                    if (it->second.has_value()) decided = decided.with(p);
                }
                if (!decided_at.has_value() &&
                    decided.contains_all(run.infinite_participants())) {
                    decided_at = k;
                }
            }
        }
        EXPECT_GT(decisions, 0u) << name;
        EXPECT_GT(answered.size(), decisions) << name;
    }
}

TEST(StableLocation, DropOutRunsPinTheTieOrder) {
    // A run in which a participant drops out has a lower-dimensional
    // sigma_k. Lying on a face shared by two stable simplices of the
    // participation dimension, it is contained in both, and the landing
    // must be the first of them in sorted order, as the scan reports.
    const Scenario scenario = find("lt-2-1-res1");
    const SolveReport& report = solved(scenario);
    ASSERT_NE(report.tsub, nullptr);
    const std::size_t horizon = scenario.options.max_landing_round;
    std::size_t ties = 0;
    for (const iis::Run& run : report.model_runs) {
        if (run.infinite_participants() == run.participants()) continue;
        std::size_t containing = 0;
        const auto want =
            scan_landing(*report.tsub, run, horizon, &containing);
        if (containing < 2) continue;
        // sigma_k is lower-dimensional: someone dropped out by then.
        if (run.round(want->round - 1).support() == run.participants()) {
            continue;
        }
        ++ties;
        expect_same_landing(core::find_landing(*report.tsub, run, horizon),
                            want, run.to_string());
    }
    EXPECT_GT(ties, 0u);
}

// The rule's index and the subdivision's flat vertex tables are pure
// reads once built: fuzz workers query one rule from several threads.
TEST(StableLocation, ConcurrentQueriesAgree) {
    const Scenario scenario = find("lt-2-1-res1");
    const SolveReport& report = solved(scenario);
    ASSERT_NE(report.tsub, nullptr);
    const TerminatingSubdivision& tsub = *report.tsub;
    const protocol::ViewLandingRule rule(tsub, *report.witness);
    std::vector<ViewQuery> queries;
    const std::size_t rounds = scenario.options.max_landing_round;
    const auto inputs = inputs_of(tsub);
    for (const iis::Run& run : report.model_runs) {
        const auto positions = iis::view_positions(run, rounds, inputs);
        for (std::size_t k = 1; k <= rounds; ++k) {
            const iis::OrderedPartition& round = run.round(k - 1);
            for (ProcessId p : round.support().members()) {
                std::vector<topo::BaryPoint> seen;
                for (ProcessId q : round.snapshot_of(p).members()) {
                    seen.push_back(*positions[k - 1][q]);
                }
                queries.emplace_back(p, k, std::move(seen));
            }
        }
    }
    std::sort(queries.begin(), queries.end());
    queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
    std::vector<std::optional<topo::VertexId>> expected;
    for (const auto& [p, k, seen] : queries) {
        expected.push_back(rule.value(p, k, seen));
    }
    const auto& stable = tsub.stable_complex();
    const topo::SubdividedComplex& last = tsub.complex_at(tsub.stages() - 1);
    std::vector<int> ok(4, 0);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < ok.size(); ++t) {
        workers.emplace_back([&, t] {
            bool all = true;
            for (std::size_t i = 0; i < queries.size(); ++i) {
                const auto& [p, k, seen] = queries[i];
                all = all && rule.value(p, k, seen) == expected[i];
            }
            for (topo::VertexId v : stable.vertex_ids()) {
                all = all && tsub.find_stable_vertex(tsub.stable_position(v),
                                                     stable.color(v)) == v;
            }
            for (topo::VertexId v : last.complex().vertex_ids()) {
                all = all && last.find_vertex(last.position(v),
                                              last.complex().color(v)) == v;
            }
            ok[t] = all ? 1 : 0;
        });
    }
    for (std::thread& w : workers) w.join();
    for (int v : ok) EXPECT_EQ(v, 1);
    EXPECT_FALSE(queries.empty());
}

}  // namespace
}  // namespace gact
