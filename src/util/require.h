// Checked preconditions and invariants for the gact library.
//
// Following the C++ Core Guidelines (I.6, E.12) we report contract
// violations by throwing: callers of this library are research harnesses
// and test drivers that want a diagnosable failure, not process death.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace gact {

/// Thrown when a caller violates a documented precondition.
class precondition_error : public std::invalid_argument {
public:
    using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant fails; indicates a library bug.
class invariant_error : public std::logic_error {
public:
    using std::logic_error::logic_error;
};

/// Thrown when an arithmetic operation would overflow its representation.
class overflow_error : public std::overflow_error {
public:
    using std::overflow_error::overflow_error;
};

// The message is a view so that a passing check with a literal message
// builds no std::string: these run in the innermost loops. A concatenated
// message defeats the view, since the std::string is built before the
// call whether the check passes or not; on a per-call path, test the
// condition and build such a message only where it throws.

/// Check a caller-facing precondition.
inline void require(bool condition, std::string_view what) {
    if (!condition) throw precondition_error(std::string(what));
}

/// Check an internal invariant.
inline void ensure(bool condition, std::string_view what) {
    if (!condition) throw invariant_error(std::string(what));
}

}  // namespace gact
