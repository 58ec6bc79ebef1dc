// Shared-memory substrate: single-writer atomic-snapshot objects under a
// deterministic scheduler.
//
// The paper's standard shared-memory model SM (Section 1) has processes
// reading and writing shared registers. We expose the classically
// equivalent single-writer atomic-snapshot abstraction [Afek et al., JACM
// 1993] as the primitive: one step is either an update of a process's own
// component or an atomic snapshot of all components. The Borowsky-Gafni
// immediate-snapshot algorithm (sm/immediate_snapshot.h) and the chained
// IIS executor (sm/iis_executor.h) are built on top, realizing the
// SM -> IIS direction of the simulations the paper relies on.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "util/process_set.h"
#include "util/require.h"

namespace gact::sm {

using gact::ProcessId;
using gact::ProcessSet;

/// Values stored in memory components (opaque to the memory).
using Word = std::uint64_t;

/// One single-writer multi-reader atomic-snapshot object, over cells its
/// owner provides (one per process). The owner decides where the cells
/// live and when they are reused: the chained IIS executor keeps every
/// level's boards in one flat array.
class SnapshotMemory {
public:
    explicit SnapshotMemory(std::span<std::optional<Word>> cells) noexcept
        : cells_(cells) {}

    std::uint32_t num_processes() const noexcept {
        return static_cast<std::uint32_t>(cells_.size());
    }

    /// Atomic update of p's own component.
    void update(ProcessId p, Word value) {
        require(p < cells_.size(), "SnapshotMemory: unknown process");
        cells_[p] = value;
    }

    /// Atomic snapshot of all components (nullopt = never written), read
    /// in place: a step is atomic in this simulation, so nothing writes
    /// while the stepping process reads it. Copy it to keep it.
    std::span<const std::optional<Word>> snapshot() const noexcept {
        return cells_;
    }

private:
    std::span<std::optional<Word>> cells_;
};

}  // namespace gact::sm
