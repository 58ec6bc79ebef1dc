#include "core/eval_cache.h"

#include <span>

#include "core/chromatic_csp.h"
#include "util/require.h"

namespace gact::core {

ConstraintTable::ConstraintTable(const ChromaticMapProblem& problem,
                                 std::size_t id_bound)
    : problem_(problem), by_id_(id_bound, nullptr) {}

const topo::SimplicialComplex& ConstraintTable::at(
    std::size_t cid, const topo::Simplex& sigma) {
    require(cid < by_id_.size(), "ConstraintTable: constraint id out of range");
    const topo::SimplicialComplex*& slot = by_id_[cid];
    if (slot == nullptr) slot = &problem_.allowed(sigma);
    return *slot;
}

EvalCache::EvalCache(ConstraintTable& constraints, std::size_t image_capacity)
    : constraints_(constraints), image_capacity_(image_capacity) {
    // Sized generously up front: the image memo is the hot map and
    // rehashing mid-search would show up in the profiles this cache
    // exists to flatten.
    image_memo_.reserve(std::min<std::size_t>(image_capacity, 1 << 16));
}

const topo::SimplicialComplex& EvalCache::allowed(
    std::size_t cid, const topo::Simplex& sigma) {
    if (constraints_.resolved(cid)) {
        ++stats_.allowed_hits;
    } else {
        ++stats_.allowed_misses;
    }
    return constraints_.at(cid, sigma);
}

bool EvalCache::image_allowed(const ChromaticMapProblem& problem,
                              std::size_t cid, const topo::Simplex& sigma,
                              const std::vector<topo::VertexId>& image) {
    const ImageKeyView view{static_cast<std::uint32_t>(cid), &image};
    const auto it = image_memo_.find(view);
    if (it != image_memo_.end()) {
        ++stats_.image_hits;
        return it->second;
    }
    const topo::Simplex img{std::span<const topo::VertexId>(image)};
    const bool ok = problem.codomain->contains(img) &&
                    allowed(cid, sigma).contains(img);
    if (admit_one()) {
        ++stats_.image_misses;
        image_memo_.emplace(
            ImageKey{static_cast<std::uint32_t>(cid), image}, ok);
    } else {
        ++stats_.image_rejected;
    }
    return ok;
}

bool EvalCache::admit_one() {
    // Both memos share the one capacity so the configured cap bounds
    // the cache's total footprint.
    if (image_memo_.size() + mask_memo_.size() < image_capacity_) {
        return true;
    }
    if (image_capacity_ == 0) return false;  // image memos disabled
    // Full: reset the epoch instead of freezing. The old code refused
    // every insertion from here on, which pinned the memo to whatever
    // the search touched first — all later subtrees ran uncached for
    // the rest of the solve. Dropping everything and refilling with
    // the CURRENT working set costs one warm-up per epoch and keeps
    // memoization live (tests/eval_cache_test.cpp).
    stats_.image_evicted += image_memo_.size() + mask_memo_.size();
    ++stats_.epoch_resets;
    image_memo_.clear();
    mask_memo_.clear();
    return true;
}

const std::vector<std::uint64_t>& EvalCache::allowed_mask(
    const ChromaticMapProblem& problem, std::size_t cid,
    const topo::Simplex& sigma, std::vector<topo::VertexId>& image,
    std::size_t hole_slot, const std::vector<topo::VertexId>& values) {
    const ImageKeyView view{static_cast<std::uint32_t>(cid), &image};
    const auto it = mask_memo_.find(view);
    if (it != mask_memo_.end()) {
        ++stats_.image_hits;
        return it->second;
    }
    const topo::SimplicialComplex& constraint = allowed(cid, sigma);
    std::vector<std::uint64_t> mask((values.size() + 63) / 64, 0);
    for (std::size_t i = 0; i < values.size(); ++i) {
        image[hole_slot] = values[i];
        const topo::Simplex img{std::span<const topo::VertexId>(image)};
        if (problem.codomain->contains(img) && constraint.contains(img)) {
            mask[i / 64] |= std::uint64_t{1} << (i % 64);
        }
    }
    image[hole_slot] = kHole;
    if (admit_one()) {
        ++stats_.image_misses;
        const auto [pos, inserted] = mask_memo_.emplace(
            ImageKey{static_cast<std::uint32_t>(cid), image},
            std::move(mask));
        return pos->second;
    }
    ++stats_.image_rejected;
    mask_scratch_ = std::move(mask);
    return mask_scratch_;
}

AllowedComplexLru::AllowedComplexLru(std::size_t capacity)
    : capacity_(capacity) {}

const topo::SimplicialComplex& AllowedComplexLru::get(
    const topo::Simplex& carrier,
    const std::function<const topo::SimplicialComplex*()>& miss) {
    if (capacity_ == 0) return *miss();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(carrier);
        if (it != entries_.end()) {
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
            return *it->second.complex;
        }
        ++misses_;
    }
    // The miss function may be expensive (carrier-map walk); run it
    // outside the lock. Concurrent misses on the same carrier both
    // compute it, and emplace keeps the first — the pointers are equal
    // anyway (the carrier map is immutable during a solve).
    const topo::SimplicialComplex* complex = miss();
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(carrier);
    if (it != entries_.end()) return *it->second.complex;
    lru_.push_front(carrier);
    entries_.emplace(carrier, Entry{complex, lru_.begin()});
    if (entries_.size() > capacity_) {
        entries_.erase(lru_.back());
        lru_.pop_back();
    }
    return *complex;
}

std::size_t AllowedComplexLru::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::size_t AllowedComplexLru::hits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::size_t AllowedComplexLru::misses() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

}  // namespace gact::core
