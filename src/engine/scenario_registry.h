// The registry of named scenarios — the single source the examples,
// benches, CLIs, and the solve service consume.
//
// Names resolve in two tiers:
//
//  * registered specs — lazy factories looked up in O(1). The 12 legacy
//    hand-built names live here as *aliases*: their factories route
//    through the scenario families (engine/scenario_family.h), so
//    `is-1-wf` and its canonical spelling `wf-is-1` build the identical
//    Scenario and the witness-digest goldens stay pinned. The heavy ksa
//    k-set-agreement grid is registered here too.
//  * family canonical names — any in-range point of a family's
//    parameter space (`lt-3-1-res1`, `ksa-3-2-2-wf`, ...) materializes
//    on demand through the family codec, no registration needed.
//
// Listing the registry costs nothing; a scenario's complexes (some are
// minutes-scale builds, e.g. L_t at n = 3) are only materialized when
// the scenario is actually requested. ScenarioRegistry::expand turns a
// family plus a value grid into the Cartesian product of scenarios —
// `gact sweep` (tools/gact.cpp) feeds that straight into
// Engine::solve_batch.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>

#include "engine/scenario.h"
#include "engine/scenario_family.h"

namespace gact::engine {

/// A registered scenario: metadata plus the factory that builds it.
struct ScenarioSpec {
    std::string name;
    std::string description;
    bool heavy = false;
    std::function<Scenario()> make;
};

class ScenarioRegistry {
public:
    /// The library's standard scenarios and families (built once,
    /// immutable).
    static const ScenarioRegistry& standard();

    /// All registered specs, cheap to enumerate (nothing materialized).
    const std::vector<ScenarioSpec>& specs() const noexcept {
        return specs_;
    }

    /// All registered names, sorted (nothing materialized) — the
    /// service's `list` reply and every "unknown scenario" diagnostic.
    std::vector<std::string> names() const;

    /// The scenario families whose canonical names this registry
    /// resolves (engine/scenario_family.h).
    const std::vector<ScenarioFamily>& families() const noexcept {
        return families_;
    }

    /// The family with the given key, or nullptr.
    const ScenarioFamily* family(const std::string& key) const;

    /// Materialize the named scenario: registered specs first, then
    /// family canonical names. nullopt if unknown; when `error` is
    /// non-null it receives a diagnostic that cites the family grammar
    /// (for near-miss names) or the full grammar summary plus the
    /// registered names.
    std::optional<Scenario> find(const std::string& name,
                                 std::string* error = nullptr) const;

    /// Materialize every non-heavy registered scenario, in registration
    /// order.
    std::vector<Scenario> quick() const;

    /// Expand a family over a value grid: the Cartesian product of the
    /// axes, in schema order with the last axis varying fastest. Axes
    /// omitted from the grid default to the parameter's full canonical
    /// range; the model axis (when the family has one) must be given
    /// explicitly. Axis values outside the schema are an error; cells
    /// failing cross-parameter validation are skipped (appended to
    /// `skipped` when non-null) so rectangular grids over triangular
    /// spaces stay expressible. Returns an empty vector with `error`
    /// set on bad input.
    std::vector<Scenario> expand(const std::string& family_key,
                                 const ParamGrid& grid, std::string* error,
                                 std::vector<std::string>* skipped =
                                     nullptr) const;

    /// The standard ~20-cell quick sweep grid: every family sampled at
    /// cheap parameter points (what `gact sweep --preset quick`,
    /// bench_engine_batch, and the CI sweep smoke run).
    std::vector<Scenario> quick_grid() const;

    /// Multi-line summary of every family grammar with ranges — what
    /// CLIs print under "unknown scenario".
    std::string grammar_help() const;

    /// Register a scenario. The factory's name/description/heavy fields
    /// are overwritten with the spec's, so factories only build
    /// content. Duplicate names are rejected (O(1) index lookup).
    void add(std::string name, std::string description, bool heavy,
             std::function<Scenario()> make);

    /// Register a family for canonical-name resolution and expand().
    void add_family(ScenarioFamily family);

    /// Register a legacy alias: `name` resolves through the family
    /// instance that `canonical` parses to, keeping the legacy name and
    /// description on the materialized Scenario.
    void add_alias(std::string name, std::string description,
                   const std::string& canonical);

private:
    Scenario materialize(const ScenarioSpec& spec) const;
    Scenario materialize(const ScenarioFamily& family,
                         const FamilyInstance& inst) const;

    std::vector<ScenarioSpec> specs_;
    std::unordered_map<std::string, std::size_t> index_;
    std::vector<ScenarioFamily> families_;
};

}  // namespace gact::engine
