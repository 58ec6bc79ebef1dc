#include "core/stable_index.h"

#include <algorithm>
#include <bit>

#include "util/require.h"

namespace gact::core {

StableSimplexIndex::StableSimplexIndex(
    const TerminatingSubdivision& tsub,
    std::vector<std::vector<Simplex>> by_dimension)
    : tsub_(&tsub) {
    for (VertexId b : tsub.base().vertex_ids()) {
        require(b < 32, "StableSimplexIndex: base vertex ids must be < 32");
        width_ = std::max<std::size_t>(width_, b + 1);
    }
    offsets_.push_back(0);
    for (std::vector<Simplex>& list : by_dimension) {
        for (Simplex& tau : list) simplices_.push_back(std::move(tau));
        offsets_.push_back(simplices_.size());
    }
    carrier_.reserve(simplices_.size());
    lo_.resize(simplices_.size() * width_);
    hi_.resize(simplices_.size() * width_);
    std::vector<Rational> dense(width_);
    for (std::size_t s = 0; s < simplices_.size(); ++s) {
        std::uint32_t carrier = 0;
        Rational* lo = &lo_[s * width_];
        Rational* hi = &hi_[s * width_];
        bool first = true;
        for (VertexId v : simplices_[s].vertices()) {
            std::fill(dense.begin(), dense.end(), Rational(0));
            for (const auto& [b, r] : tsub.stable_position(v).coords()) {
                carrier |= std::uint32_t{1} << b;
                dense[b] = r;
            }
            for (std::size_t i = 0; i < width_; ++i) {
                if (first || dense[i] < lo[i]) lo[i] = dense[i];
                if (first || dense[i] > hi[i]) hi[i] = dense[i];
            }
            first = false;
        }
        carrier_.push_back(carrier);
    }
}

std::uint32_t StableSimplexIndex::mask_of(const Simplex& s) const {
    std::uint32_t mask = 0;
    for (VertexId v : s.vertices()) {
        if (v < width_) mask |= std::uint32_t{1} << v;
    }
    return mask;
}

const Simplex* StableSimplexIndex::locate(
    std::size_t d, const Simplex& within,
    const std::vector<BaryPoint>& points) const {
    if (d >= dimensions()) return nullptr;
    const std::uint32_t within_mask = mask_of(within);
    // The points' joint support and dense coordinates, once per query.
    std::uint32_t support = 0;
    std::vector<Rational> coords(points.size() * width_);
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (const auto& [b, r] : points[i].coords()) {
            // Outside every carrier: no stable simplex contains it.
            if (b >= width_) return nullptr;
            support |= std::uint32_t{1} << b;
            coords[i * width_ + b] = r;
        }
    }
    for (std::size_t s = offsets_[d]; s < offsets_[d + 1]; ++s) {
        const std::uint32_t carrier = carrier_[s];
        if ((carrier & ~within_mask) != 0) continue;
        if ((support & ~carrier) != 0) continue;
        // Off the carrier both the point's coordinate and the box are 0.
        const Rational* lo = &lo_[s * width_];
        const Rational* hi = &hi_[s * width_];
        bool in_box = true;
        for (std::size_t i = 0; in_box && i < points.size(); ++i) {
            const Rational* x = &coords[i * width_];
            for (std::uint32_t bits = carrier; bits != 0; bits &= bits - 1) {
                const int b = std::countr_zero(bits);
                if (x[b] < lo[b] || x[b] > hi[b]) {
                    in_box = false;
                    break;
                }
            }
        }
        if (in_box && tsub_->stable_simplex_contains(simplices_[s], points)) {
            return &simplices_[s];
        }
    }
    return nullptr;
}

}  // namespace gact::core
