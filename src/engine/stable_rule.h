// Stabilization strategies for terminating subdivisions (Section 6.1).
//
// The GACT "<=" direction builds a terminating subdivision T whose stable
// complex K(T) carries the witness map. Which simplices terminate at each
// stage is the one degree of freedom of the construction: the L_t pipeline
// terminates simplices clear of the forbidden skeleton (Section 9.2),
// while the uniform rule terminates everything from a fixed depth on,
// reproducing the plain Chr^d subdivisions. A StableRule packages that
// choice so the engine's general route works for any of them — the L_t
// rule (core/lt_pipeline.h's lt_stable_rule) becomes one instance of the
// strategy rather than the hard-wired pipeline it used to be.
#pragma once

#include <memory>
#include <string>

#include "core/terminating_subdivision.h"

namespace gact::engine {

/// Strategy: which simplices of the current stage complex terminate.
class StableRule {
public:
    virtual ~StableRule() = default;

    /// Should `s` (a simplex of the stage complex `cx`) be marked stable?
    /// Must select a set closed under faces together with the simplices
    /// already stable (TerminatingSubdivision::advance's contract): a
    /// selected simplex with a face that is neither stable nor selected
    /// makes advance() throw precondition_error; it is not closed for
    /// the rule.
    virtual bool stable(const core::SubdividedComplex& cx,
                       const topo::Simplex& s) const = 0;

    /// Human-readable name for reports.
    virtual std::string name() const = 0;
};

/// The L_t pipeline's rule (Section 9.2): from depth 2 on, a simplex is
/// stable when every vertex carrier has dimension >= n - t. Delegates to
/// core::lt_stable_rule, which this class wraps as a strategy instance.
class LtStableRule final : public StableRule {
public:
    LtStableRule(int n, int t) : n_(n), t_(t) {}
    bool stable(const core::SubdividedComplex& cx,
                const topo::Simplex& s) const override;
    std::string name() const override;

private:
    int n_;
    int t_;
};

/// Terminate every simplex from a fixed depth on: K(T) = Chr^depth of the
/// base. The degenerate terminating subdivision behind plain-subdivision
/// scenarios (immediate snapshot, approximate agreement): every run of
/// every model lands, so admissibility always holds.
class UniformDepthRule final : public StableRule {
public:
    explicit UniformDepthRule(std::size_t depth) : depth_(depth) {}
    bool stable(const core::SubdividedComplex& cx,
                const topo::Simplex& s) const override;
    std::string name() const override;

private:
    std::size_t depth_;
};

}  // namespace gact::engine
