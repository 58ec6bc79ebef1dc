// Scenario families: parameterized generators over the paper's (T, M)
// model space.
//
// The paper's characterization is *generalized* — solvability of an
// arbitrary task T in an arbitrary sub-IIS model M — so the scenario
// layer must name points of a parameter grid, not a fixed list of
// demos. A ScenarioFamily declares
//
//   * a typed parameter schema: integer parameters with canonical
//     ranges plus an optional model axis (wf | res<r> | of<k> | adv<a>),
//   * a canonical-name codec: `lt-3-2-res2`-style names parse back to
//     parameters and re-encode bit-identically (the round trip is a
//     pinned property test), with out-of-range or malformed names
//     rejected with a diagnostic that cites the family grammar,
//   * an instantiate hook producing a ready-to-solve Scenario — the
//     right task builder, the right iis::Model, the right StableRule,
//     and the tuned EngineOptions the hand-built registry entries used.
//
// The 12 legacy registry names are aliases resolving *through* these
// families (scenario_registry.cpp), so every existing witness-digest
// golden stays pinned while any in-range parameter combination becomes
// a valid scenario name everywhere a name is accepted: `gact solve`,
// the solve server's wire protocol, `gact fuzz`, and `gact sweep`
// (tools/gact.cpp), which expands Cartesian grids through
// Engine::solve_batch.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "util/json.h"

namespace gact::engine {

/// One integer parameter of a family schema.
struct FamilyParam {
    std::string name;  ///< the `<n>` placeholder in the grammar
    int min = 0;       ///< inclusive canonical range
    int max = 0;
    std::string doc;   ///< one-line meaning, e.g. "base dimension"
};

/// One variant of a family's model axis. `has_arg` models carry an
/// integer suffix in the name (`res2`, `of1`, `adv1`).
struct FamilyModel {
    std::string token;  ///< "wf", "res", "of", "adv"
    bool has_arg = false;
    int arg_min = 0;  ///< inclusive argument range when has_arg
    int arg_max = 0;
    std::string doc;
};

/// A parsed point of a family's parameter space.
struct FamilyInstance {
    std::string family;       ///< the family key
    std::vector<int> params;  ///< in schema order
    std::string model_token;  ///< empty when the family has no model axis
    int model_arg = 0;        ///< meaningful when the chosen model has_arg

    bool operator==(const FamilyInstance&) const = default;
};

/// One '-'-separated segment of a family's canonical-name shape.
/// Examples: lt names are {literal "lt", param 0, param 1, model};
/// is-of names are {literal "is", param 0, prefixed("of", 1)}.
struct NameSegment {
    enum class Kind { kLiteral, kParam, kPrefixedParam, kModel };
    Kind kind;
    std::string text;       ///< literal text, or the prefix ("of")
    std::size_t param = 0;  ///< index into the param schema

    static NameSegment literal(std::string t) {
        return {Kind::kLiteral, std::move(t), 0};
    }
    static NameSegment param_at(std::size_t i) {
        return {Kind::kParam, "", i};
    }
    static NameSegment prefixed(std::string prefix, std::size_t i) {
        return {Kind::kPrefixedParam, std::move(prefix), i};
    }
    static NameSegment model() { return {Kind::kModel, "", 0}; }
};

/// A parameterized scenario generator with a canonical-name codec.
class ScenarioFamily {
public:
    /// Cross-parameter validation ("" = ok, else diagnostic), heaviness
    /// classification, and the Scenario builder. Instances reaching
    /// `heavy`/`instantiate` are always schema- and validate-clean.
    using ValidateFn = std::function<std::string(const FamilyInstance&)>;
    using HeavyFn = std::function<bool(const FamilyInstance&)>;
    using InstantiateFn = std::function<Scenario(const FamilyInstance&)>;

    ScenarioFamily(std::string key, std::string description,
                   std::string constraints_doc,
                   std::vector<NameSegment> pattern,
                   std::vector<FamilyParam> params,
                   std::vector<FamilyModel> models, ValidateFn validate,
                   HeavyFn heavy, InstantiateFn instantiate);

    const std::string& key() const noexcept { return key_; }
    const std::string& description() const noexcept { return description_; }
    const std::vector<FamilyParam>& params() const noexcept {
        return params_;
    }
    const std::vector<FamilyModel>& models() const noexcept {
        return models_;
    }

    /// The name grammar, e.g. "lt-<n>-<t>-<wf|res<r>|adv<a>>".
    std::string grammar() const;
    /// grammar() plus parameter ranges and cross-constraints — the
    /// one-paragraph help CLIs print for unknown-scenario diagnostics.
    std::string grammar_help() const;

    /// Canonical name of an instance; inverse of parse() by construction.
    std::string encode(const FamilyInstance& inst) const;

    /// Parse a canonical name. nullopt with a diagnostic when the name
    /// is malformed, out of range, or fails cross-parameter validation.
    /// Accepts only canonical spellings (no leading zeros, no signs) so
    /// parse-then-encode is the identity on accepted names.
    std::optional<FamilyInstance> parse(const std::string& name,
                                        std::string* error = nullptr) const;

    /// Does the name target this family (its leading literal segments
    /// match)? Used to blame the right grammar in diagnostics.
    bool claims(const std::string& name) const;

    /// Range + cross-parameter check; "" when the instance is valid.
    std::string validate(const FamilyInstance& inst) const;

    /// Is this point minutes-scale (excluded from quick sets)?
    bool heavy(const FamilyInstance& inst) const { return heavy_(inst); }

    /// Build the Scenario for a valid instance. The caller stamps
    /// name/description/heavy (ScenarioRegistry does this uniformly).
    Scenario instantiate(const FamilyInstance& inst) const {
        return instantiate_(inst);
    }

    /// Generated one-line description of an instance, e.g.
    /// "t-resilience task L_t (n=2, t=1, model=res1)".
    std::string describe(const FamilyInstance& inst) const;

    /// Structured schema for the service's `list` reply: key, grammar,
    /// params with ranges, model variants, constraints.
    util::Json schema_json() const;

private:
    std::string key_;
    std::string description_;
    std::string constraints_doc_;
    std::vector<NameSegment> pattern_;
    std::vector<FamilyParam> params_;
    std::vector<FamilyModel> models_;
    ValidateFn validate_;
    HeavyFn heavy_;
    InstantiateFn instantiate_;
};

/// One axis of a sweep grid: either an integer parameter axis (explicit
/// value list) or the model axis (explicit model-token list, `name` ==
/// "model").
struct GridAxis {
    std::string name;
    std::vector<int> values;          ///< parameter axes
    std::vector<std::string> models;  ///< the model axis
};

/// A sweep grid: one axis per family parameter (axes omitted by the
/// caller default to the full canonical range) plus the model axis when
/// the family has one.
using ParamGrid = std::vector<GridAxis>;

/// Parse CLI axis syntax: "n=1..3" (inclusive range), "t=1,2" (explicit
/// list), or "model=wf,res1" (model-token list). Returns nullopt with a
/// diagnostic on malformed specs.
std::optional<GridAxis> parse_grid_axis(const std::string& text,
                                        std::string* error = nullptr);

/// Canonical decimal parse: digits only, no leading zero (so accepted
/// spellings re-encode identically). Exposed for grid/model parsing.
bool parse_canonical_int(const std::string& text, int& out);

/// The paper-standard families: wf-consensus, wf-is, ksa, lord, lt,
/// is-of, approx-of (one per hand-built registry group). Built once.
const std::vector<ScenarioFamily>& standard_families();

}  // namespace gact::engine
