// Strict command-line number parsing shared by the tools.
//
// std::atoi / std::strtoul accept junk: "abc" reads as 0 and "-1" wraps
// to the largest unsigned. A count flag must instead reject anything
// that is not a plain positive decimal integer its field can hold.
#pragma once

#include <cstddef>
#include <limits>

namespace gact::util {

/// Parse `text` as a positive count (decimal digits only, no sign, no
/// trailing characters, 1 <= value <= UINT_MAX). Returns false and
/// leaves `out` untouched otherwise.
inline bool parse_positive_count(const char* text, unsigned& out) {
    if (text == nullptr || *text == '\0') return false;
    unsigned long long value = 0;
    for (const char* p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9') return false;
        value = value * 10 + static_cast<unsigned>(*p - '0');
        if (value > std::numeric_limits<unsigned>::max()) return false;
    }
    if (value == 0) return false;
    out = static_cast<unsigned>(value);
    return true;
}

}  // namespace gact::util
