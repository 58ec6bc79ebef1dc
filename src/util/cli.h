// Strict command-line number parsing shared by the tools.
//
// std::atoi / std::strtoul / std::atof accept junk: "abc" reads as 0 and
// "-1" wraps to the largest unsigned. A numeric flag must instead reject
// anything that is not a plain decimal number in its field's range.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdlib>
#include <limits>

namespace gact::util {

/// Parse `text` as a decimal integer in [min, max] (digits only, no sign,
/// no trailing characters). Returns false and leaves `out` untouched
/// otherwise.
template <std::unsigned_integral T>
bool parse_count(const char* text, T& out, T min = 0,
                 T max = std::numeric_limits<T>::max()) {
    if (text == nullptr || *text == '\0') return false;
    T value = 0;
    for (const char* p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9') return false;
        const T digit = static_cast<T>(*p - '0');
        if (value > (max - digit) / 10) return false;
        value = static_cast<T>(value * 10 + digit);
    }
    if (value < min) return false;
    out = value;
    return true;
}

/// Parse `text` as a positive count (1 <= value <= UINT_MAX).
inline bool parse_positive_count(const char* text, unsigned& out) {
    return parse_count(text, out, 1u);
}

/// Parse `text` as a non-negative decimal number such as "10" or "0.5"
/// (digits and at most one '.', nothing else). Returns false and leaves
/// `out` untouched otherwise.
inline bool parse_non_negative_decimal(const char* text, double& out) {
    if (text == nullptr) return false;
    int digits = 0;
    int dots = 0;
    for (const char* p = text; *p != '\0'; ++p) {
        if (*p >= '0' && *p <= '9') {
            ++digits;
        } else if (*p == '.') {
            ++dots;
        } else {
            return false;
        }
    }
    if (digits == 0 || dots > 1) return false;
    const double value = std::strtod(text, nullptr);
    if (!std::isfinite(value)) return false;
    out = value;
    return true;
}

}  // namespace gact::util
