// Hash combining helpers shared across the library.
#pragma once

#include <cstddef>
#include <functional>
#include <iterator>

namespace gact {

/// Combine a hash value into a seed (boost::hash_combine recipe).
inline void hash_combine(std::size_t& seed, std::size_t value) noexcept {
    seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Hash a range of hashable values (a vector or a span).
template <typename Range>
std::size_t hash_range(const Range& values) noexcept {
    using T = std::iter_value_t<decltype(std::begin(values))>;
    std::size_t seed = std::size(values);
    for (const T& v : values) hash_combine(seed, std::hash<T>{}(v));
    return seed;
}

}  // namespace gact
