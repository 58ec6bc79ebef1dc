// Sets of process identifiers, represented as bitmasks.
//
// The paper works with n + 1 processes p_0 .. p_n; every model definition
// (participating sets, fast/slow sets, adversaries) is phrased in terms of
// subsets of {0, .., n}. A 32-bit mask supports up to 32 processes, far
// beyond what any construction in this library materializes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/require.h"

namespace gact {

/// Process identifier; process i is the process with color i.
using ProcessId = std::uint32_t;

/// Maximum number of processes supported by ProcessSet.
inline constexpr ProcessId kMaxProcesses = 32;

/// An immutable-style value type for subsets of {0, .., kMaxProcesses-1}.
class ProcessSet {
public:
    constexpr ProcessSet() noexcept : bits_(0) {}

    /// The singleton {p}.
    static ProcessSet single(ProcessId p) {
        require(p < kMaxProcesses, "ProcessSet: process id out of range");
        ProcessSet s;
        s.bits_ = std::uint32_t{1} << p;
        return s;
    }

    /// The full set {0, .., count-1}.
    static ProcessSet full(std::uint32_t count) {
        require(count <= kMaxProcesses, "ProcessSet: too many processes");
        ProcessSet s;
        s.bits_ = count == kMaxProcesses ? ~std::uint32_t{0}
                                         : (std::uint32_t{1} << count) - 1;
        return s;
    }

    /// Build from an explicit list of ids.
    static ProcessSet of(std::initializer_list<ProcessId> ids) {
        ProcessSet s;
        for (ProcessId p : ids) s = s.with(p);
        return s;
    }

    /// Build from a raw bitmask.
    static constexpr ProcessSet from_bits(std::uint32_t bits) noexcept {
        ProcessSet s;
        s.bits_ = bits;
        return s;
    }

    std::uint32_t bits() const noexcept { return bits_; }
    bool empty() const noexcept { return bits_ == 0; }
    std::uint32_t size() const noexcept { return __builtin_popcount(bits_); }

    bool contains(ProcessId p) const noexcept {
        return p < kMaxProcesses && (bits_ & (std::uint32_t{1} << p)) != 0;
    }
    bool contains_all(ProcessSet other) const noexcept {
        return (bits_ & other.bits_) == other.bits_;
    }
    bool intersects(ProcessSet other) const noexcept {
        return (bits_ & other.bits_) != 0;
    }

    ProcessSet with(ProcessId p) const {
        require(p < kMaxProcesses, "ProcessSet: process id out of range");
        return from_bits(bits_ | (std::uint32_t{1} << p));
    }
    ProcessSet without(ProcessId p) const noexcept {
        return from_bits(bits_ & ~(std::uint32_t{1} << p));
    }

    friend ProcessSet operator|(ProcessSet a, ProcessSet b) noexcept {
        return from_bits(a.bits_ | b.bits_);
    }
    friend ProcessSet operator&(ProcessSet a, ProcessSet b) noexcept {
        return from_bits(a.bits_ & b.bits_);
    }
    /// Set difference a \ b.
    friend ProcessSet operator-(ProcessSet a, ProcessSet b) noexcept {
        return from_bits(a.bits_ & ~b.bits_);
    }

    friend bool operator==(ProcessSet a, ProcessSet b) noexcept = default;

    /// Total order (by bitmask) so sets can key ordered containers.
    friend bool operator<(ProcessSet a, ProcessSet b) noexcept {
        return a.bits_ < b.bits_;
    }

    /// The lowest process id in the set. Requires non-empty.
    ProcessId min() const {
        require(!empty(), "ProcessSet::min on empty set");
        return static_cast<ProcessId>(__builtin_ctz(bits_));
    }

    /// Iterates the members in increasing order without building a
    /// vector: `for (ProcessId p : set)`.
    class Iterator {
    public:
        constexpr explicit Iterator(std::uint32_t bits) noexcept
            : bits_(bits) {}

        ProcessId operator*() const noexcept {
            return static_cast<ProcessId>(__builtin_ctz(bits_));
        }
        Iterator& operator++() noexcept {
            bits_ &= bits_ - 1;
            return *this;
        }
        friend bool operator==(Iterator a, Iterator b) noexcept = default;

    private:
        std::uint32_t bits_;
    };

    Iterator begin() const noexcept { return Iterator(bits_); }
    Iterator end() const noexcept { return Iterator(0); }

    /// Members in increasing order.
    std::vector<ProcessId> members() const {
        std::vector<ProcessId> out;
        out.reserve(size());
        for (std::uint32_t b = bits_; b != 0; b &= b - 1) {
            out.push_back(static_cast<ProcessId>(__builtin_ctz(b)));
        }
        return out;
    }

    /// "{0,2,3}".
    std::string to_string() const;

private:
    std::uint32_t bits_;
};

std::ostream& operator<<(std::ostream& os, ProcessSet s);

/// Enumerate all non-empty subsets of `universe`, in increasing bitmask order.
std::vector<ProcessSet> nonempty_subsets(ProcessSet universe);

}  // namespace gact

template <>
struct std::hash<gact::ProcessSet> {
    std::size_t operator()(gact::ProcessSet s) const noexcept {
        return std::hash<std::uint32_t>{}(s.bits());
    }
};
