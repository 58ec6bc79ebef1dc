#include "iis/run.h"

#include <array>
#include <numeric>
#include <ostream>

#include "util/require.h"

namespace gact::iis {

namespace {

std::size_t lcm_size(std::size_t a, std::size_t b) {
    return a / std::gcd(a, b) * b;
}

}  // namespace

void validate_rounds(std::uint32_t num_processes,
                     std::span<const OrderedPartition> prefix,
                     std::span<const OrderedPartition> cycle) {
    require(num_processes >= 1 && num_processes <= kMaxProcesses,
            "Run: process count out of range");
    require(!cycle.empty(), "Run: cycle must be non-empty");
    const ProcessSet full = ProcessSet::full(num_processes);
    ProcessSet prev = full;
    for (const OrderedPartition& p : prefix) {
        require(!p.empty(), "Run: empty round");
        require(prev.contains_all(p.support()),
                "Run: supports must be decreasing");
        require(full.contains_all(p.support()), "Run: unknown process");
        prev = p.support();
    }
    const ProcessSet tail_support = cycle[0].support();
    require(prev.contains_all(tail_support),
            "Run: supports must be decreasing into the cycle");
    for (const OrderedPartition& p : cycle) {
        require(p.support() == tail_support,
                "Run: all cycle rounds must share one support");
        require(full.contains_all(p.support()), "Run: unknown process");
    }
}

Run::Run(std::uint32_t num_processes, std::vector<OrderedPartition> prefix,
         std::vector<OrderedPartition> cycle)
    : num_processes_(num_processes),
      prefix_(std::move(prefix)),
      cycle_(std::move(cycle)) {
    validate_rounds(num_processes_, prefix_, cycle_);
}

Run Run::forever(std::uint32_t num_processes, OrderedPartition round) {
    return Run(num_processes, {}, {std::move(round)});
}

const OrderedPartition& Run::round(std::size_t k) const {
    if (k < prefix_.size()) return prefix_[k];
    return cycle_[(k - prefix_.size()) % cycle_.size()];
}

std::size_t Run::decision_horizon(const Run& other) const {
    return std::max(prefix_.size(), other.prefix_.size()) +
           lcm_size(cycle_.size(), other.cycle_.size());
}

bool operator==(const Run& a, const Run& b) {
    if (a.num_processes_ != b.num_processes_) return false;
    const std::size_t h = a.decision_horizon(b);
    for (std::size_t k = 0; k < h; ++k) {
        if (!(a.round(k) == b.round(k))) return false;
    }
    return true;
}

bool Run::is_extension_of(const Run& smaller) const {
    if (num_processes_ != smaller.num_processes_) return false;
    const std::size_t h = decision_horizon(smaller);
    for (std::size_t k = 0; k < h; ++k) {
        const OrderedPartition& small_round = smaller.round(k);
        const OrderedPartition& big_round = round(k);
        // (i) S_k ⊆ S'_k.
        if (!big_round.support().contains_all(small_round.support())) {
            return false;
        }
        // (ii) views of smaller's participants preserved: each such
        // process present in this round must have an identical snapshot.
        for (ProcessId p : small_round.support().members()) {
            if (!(small_round.snapshot_of(p) == big_round.snapshot_of(p))) {
                return false;
            }
        }
    }
    return true;
}

Run Run::minimal() const {
    // Step 1: the tail core. For each process in the cycle support compute
    // the closure of {i} under "sees within some cycle round"; the closures
    // are totally ordered by inclusion (processes in one round have
    // comparable snapshots), and the smallest is the tail of the minimal
    // run.
    const ProcessSet tail_support = infinite_participants();
    const auto cycle_closure = [&](ProcessId seed) {
        ProcessSet k = ProcessSet::single(seed);
        bool changed = true;
        while (changed) {
            changed = false;
            for (const OrderedPartition& p : cycle_) {
                for (ProcessId q : k.members()) {
                    if (!p.contains(q)) continue;
                    const ProcessSet snap = p.snapshot_of(q);
                    if (!k.contains_all(snap)) {
                        k = k | snap;
                        changed = true;
                    }
                }
            }
        }
        return k;
    };

    ProcessSet core = cycle_closure(tail_support.min());
    for (ProcessId i : tail_support.members()) {
        const ProcessSet k = cycle_closure(i);
        if (core.contains_all(k)) {
            core = k;
        } else {
            ensure(k.contains_all(core),
                   "Run::minimal: closures are not totally ordered");
        }
    }

    // Step 2: backward closure through the prefix. needed(j) is the least
    // set containing the core, needed(j+1), and closed under same-round
    // snapshots: every kept process's round-j snapshot must be kept so its
    // views are preserved.
    const auto close_in_round = [&](const OrderedPartition& p, ProcessSet s) {
        bool changed = true;
        while (changed) {
            changed = false;
            for (ProcessId q : s.members()) {
                if (!p.contains(q)) continue;
                const ProcessSet snap = p.snapshot_of(q);
                if (!s.contains_all(snap)) {
                    s = s | snap;
                    changed = true;
                }
            }
        }
        return s;
    };

    std::vector<ProcessSet> needed(prefix_.size());
    ProcessSet future = core;
    for (std::size_t j = prefix_.size(); j-- > 0;) {
        needed[j] = close_in_round(prefix_[j], future | core);
        future = needed[j];
    }

    // Step 3: assemble the restricted run, dropping prefix rounds that
    // collapse to the tail behaviour is unnecessary — restriction keeps the
    // round structure, which is what the definitions compare.
    std::vector<OrderedPartition> prefix;
    prefix.reserve(prefix_.size());
    for (std::size_t j = 0; j < prefix_.size(); ++j) {
        prefix.push_back(prefix_[j].restrict_to(needed[j]));
    }
    std::vector<OrderedPartition> cycle;
    cycle.reserve(cycle_.size());
    for (const OrderedPartition& p : cycle_) {
        cycle.push_back(p.restrict_to(core));
    }
    return Run(num_processes_, std::move(prefix), std::move(cycle));
}

Rational Run::distance_to(const Run& other) const {
    if (*this == other) return Rational(0);
    const std::size_t h = decision_horizon(other);
    std::size_t agree = 0;
    while (agree < h && round(agree) == other.round(agree)) ++agree;
    return Rational(1, static_cast<std::int64_t>(1 + agree));
}

bool Run::takes_step(ProcessId p, std::size_t k) const {
    require(k >= 1, "Run::takes_step: steps are 1-indexed");
    return round(k - 1).contains(p);
}

std::vector<std::vector<std::optional<ViewId>>> Run::view_table(
    std::size_t k, ViewArena& arena,
    const std::vector<std::optional<topo::VertexId>>* inputs) const {
    std::vector<std::vector<std::optional<ViewId>>> table(
        k + 1, std::vector<std::optional<ViewId>>(num_processes_));
    for (ProcessId p = 0; p < num_processes_; ++p) {
        std::optional<topo::VertexId> input;
        if (inputs != nullptr) {
            require(p < inputs->size(),
                    "Run::view_table: inputs vector too short");
            input = (*inputs)[p];
        }
        table[0][p] = arena.make_initial(p, input);
    }
    for (std::size_t j = 1; j <= k; ++j) {
        const OrderedPartition& r = round(j - 1);
        for (ProcessId p : r.support().members()) {
            std::vector<ViewId> seen;
            for (ProcessId q : r.snapshot_of(p).members()) {
                ensure(table[j - 1][q].has_value(),
                       "Run::view_table: snapshot of a dropped process");
                seen.push_back(*table[j - 1][q]);
            }
            table[j][p] = arena.make_view(p, seen);
        }
    }
    return table;
}

ViewId Run::view(ProcessId p, std::size_t k, ViewArena& arena,
                 const std::vector<std::optional<topo::VertexId>>* inputs)
    const {
    require(p < num_processes_, "Run::view: unknown process");
    const auto table = view_table(k, arena, inputs);
    require(table[k][p].has_value(), "Run::view: process not in this round");
    return *table[k][p];
}

void initial_view_row(std::uint32_t num_processes, ViewArena& arena,
                      const std::vector<std::optional<topo::VertexId>>* inputs,
                      std::vector<std::optional<ViewId>>& row) {
    require(inputs == nullptr || inputs->size() >= num_processes,
            "initial_view_row: inputs vector too short");
    row.resize(num_processes);
    for (ProcessId p = 0; p < num_processes; ++p) {
        row[p] = arena.make_initial(
            p, inputs != nullptr ? (*inputs)[p] : std::nullopt);
    }
}

void next_view_row(const OrderedPartition& round,
                   const std::vector<std::optional<ViewId>>& previous,
                   ViewArena& arena, std::vector<std::optional<ViewId>>& row) {
    require(&row != &previous, "next_view_row: row aliases previous");
    require(ProcessSet::full(static_cast<std::uint32_t>(previous.size()))
                .contains_all(round.support()),
            "next_view_row: unknown process");
    row.assign(previous.size(), std::nullopt);
    // Block j's processes all see blocks 1..j: walk the blocks once,
    // appending each block's views to the seen list they share.
    std::array<ViewId, kMaxProcesses> seen;
    std::size_t count = 0;
    for (const ProcessSet& block : round.blocks()) {
        for (ProcessId q : block) {
            ensure(previous[q].has_value(),
                   "next_view_row: snapshot of a dropped process");
            seen[count++] = *previous[q];
        }
        for (ProcessId p : block) {
            row[p] = arena.make_view(p, std::span(seen.data(), count));
        }
    }
}

std::string Run::to_string() const {
    std::string out;
    for (const OrderedPartition& p : prefix_) out += p.to_string();
    out += "(";
    for (const OrderedPartition& p : cycle_) out += p.to_string();
    out += ")^w";
    return out;
}

std::ostream& operator<<(std::ostream& os, const Run& r) {
    return os << r.to_string();
}

}  // namespace gact::iis
