#include "engine/stable_rule.h"

#include "core/lt_pipeline.h"

namespace gact::engine {

bool LtStableRule::stable(const core::SubdividedComplex& cx,
                          const topo::Simplex& s) const {
    return core::lt_stable_rule(n_, t_, cx, s);
}

std::string LtStableRule::name() const {
    return "lt-rule(n=" + std::to_string(n_) + ",t=" + std::to_string(t_) +
           ")";
}

bool UniformDepthRule::stable(const core::SubdividedComplex& cx,
                              const topo::Simplex&) const {
    return static_cast<std::size_t>(cx.depth()) >= depth_;
}

std::string UniformDepthRule::name() const {
    return "uniform-depth(" + std::to_string(depth_) + ")";
}

}  // namespace gact::engine
