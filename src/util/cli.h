// Command-line parsing shared by the `gact` front end (tools/gact.cpp)
// and the GACT_EXEC_THREADS override.
//
// std::atoi / std::strtoul / std::atof accept junk: "abc" reads as 0 and
// "-1" wraps to the largest unsigned. A numeric flag must instead reject
// anything that is not a plain decimal number in its field's range.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

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

/// A malformed command line. The message names the offending argument;
/// the front end prints it with the command's usage and exits 2.
class UsageError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Walks argv[first..argc) once. Each flag accessor either recognises
/// the current argument, consumes it (with its value, for a
/// value-taking flag) and returns true, or returns false and leaves the
/// cursor in place, so a command's loop is one `||` chain per argument.
/// Every malformed argument throws UsageError.
class ArgCursor {
public:
    ArgCursor(int argc, char** argv, int first)
        : argc_(argc), argv_(argv), next_(first) {}

    bool done() const { return next_ >= argc_; }

    /// A switch: consumes `name` and sets `on`.
    bool flag(const char* name, bool& on) {
        if (!at(name)) return false;
        ++next_;
        on = true;
        return true;
    }

    /// A value-taking flag: consumes `name` and stores its value.
    bool value(const char* name, std::string& out) {
        const char* text = take_value(name);
        if (text == nullptr) return false;
        out = text;
        return true;
    }

    /// A numeric flag whose value must be a plain decimal in [min, max].
    template <std::unsigned_integral T>
    bool count(const char* name, T& out, std::type_identity_t<T> min = 0,
               std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
        const char* text = take_value(name);
        if (text == nullptr) return false;
        if (!parse_count(text, out, min, max)) {
            bad_value(name, text,
                      std::to_string(min) + ".." + std::to_string(max));
        }
        return true;
    }

    /// A numeric flag whose value must be a non-negative decimal.
    bool decimal(const char* name, double& out) {
        const char* text = take_value(name);
        if (text == nullptr) return false;
        if (!parse_non_negative_decimal(text, out)) {
            bad_value(name, text, "a non-negative decimal number");
        }
        return true;
    }

    /// Consumes the current argument as an operand. Something that
    /// looks like a flag is an argument no accessor recognised.
    const char* operand() {
        if (argv_[next_][0] == '-') unknown();
        return argv_[next_++];
    }

    /// Rejects the current argument.
    [[noreturn]] void unknown() const {
        throw UsageError(std::string("unknown argument '") + argv_[next_] +
                         "'");
    }

private:
    bool at(const char* name) const {
        return !done() && std::strcmp(argv_[next_], name) == 0;
    }

    const char* take_value(const char* name) {
        if (!at(name)) return nullptr;
        if (next_ + 1 >= argc_) {
            throw UsageError(std::string(name) + " needs a value");
        }
        next_ += 2;
        return argv_[next_ - 1];
    }

    [[noreturn]] static void bad_value(const char* name, const char* text,
                                       const std::string& want) {
        throw UsageError(std::string("bad ") + name + " '" + text +
                         "' (want " + want + ")");
    }

    int argc_;
    char** argv_;
    int next_;
};

}  // namespace gact::util
