#include "core/chromatic_csp.h"

#include <algorithm>
#include <unordered_set>

#include "core/csp_setup.h"
#include "core/eval_cache.h"
#include "core/nogood_store.h"
#include "exec/cancel.h"
#include "topology/adjacency_index.h"
#include "util/require.h"

namespace gact::core {

// The fields-covered check of SearchCounters::add: the struct must be
// exactly its counters (no padding, no non-counter members), so any new
// field changes sizeof and lands here. When this assert fires, extend
// add() below AND the populated-struct round-trip in
// tests/solver_cache_test.cpp, then bump the expected count.
static_assert(sizeof(SearchCounters) == 9 * sizeof(std::size_t),
              "SearchCounters gained or lost a field: update "
              "SearchCounters::add() (every accumulation site funnels "
              "through it) and the round-trip test, then adjust this "
              "count");

void SearchCounters::add(const SearchCounters& other) noexcept {
    backtracks += other.backtracks;
    nogood_prunings += other.nogood_prunings;
    nogoods_recorded += other.nogoods_recorded;
    nogoods_evicted += other.nogoods_evicted;
    backjumps += other.backjumps;
    pool_seeded += other.pool_seeded;
    pool_published += other.pool_published;
    eval_cache_hits += other.eval_cache_hits;
    eval_cache_misses += other.eval_cache_misses;
}

namespace {

using csp_setup::Decomposition;
using csp_setup::DomainLists;

// ---------------------------------------------------------------------------
// Naive engine: the seed's plain chronological backtracker, kept verbatim
// as the SolverConfig::naive() reference.
// ---------------------------------------------------------------------------

struct NaiveSearcher {
    explicit NaiveSearcher(const ChromaticMapProblem& p) : problem(p) {}

    const ChromaticMapProblem& problem;
    const exec::CancelToken* cancel = nullptr;
    std::vector<VertexId> order;                 // assignment order
    std::vector<std::vector<VertexId>> domains;  // candidates per position
    std::unordered_map<VertexId, VertexId> assignment;
    // simplices of the domain complex indexed by their highest-ordered
    // vertex, so each constraint is checked exactly once, as soon as it is
    // fully assigned.
    std::unordered_map<VertexId, std::vector<Simplex>> constraints_by_last;
    SearchCounters counters;
    std::size_t max_backtracks = 0;
    bool exhausted = true;

    /// The image of a fully assigned simplex must be a simplex of the
    /// codomain lying inside sigma's constraint complex.
    bool constraint_holds(const Simplex& sigma) const {
        std::vector<VertexId> image;
        image.reserve(sigma.size());
        for (VertexId v : sigma.vertices()) image.push_back(assignment.at(v));
        const Simplex img(std::move(image));
        if (!problem.codomain->contains(img)) return false;
        return problem.allowed(sigma).contains(img);
    }

    bool assign(std::size_t idx) {
        if (cancel != nullptr && cancel->cancelled()) {
            exhausted = false;
            return false;
        }
        if (idx == order.size()) return true;
        const VertexId v = order[idx];
        for (VertexId w : domains[idx]) {
            assignment[v] = w;
            bool ok = true;
            const auto it = constraints_by_last.find(v);
            if (it != constraints_by_last.end()) {
                for (const Simplex& sigma : it->second) {
                    if (!constraint_holds(sigma)) {
                        ok = false;
                        break;
                    }
                }
            }
            if (ok && assign(idx + 1)) return true;
            assignment.erase(v);
            if (++counters.backtracks > max_backtracks) {
                exhausted = false;
                return false;
            }
        }
        return false;
    }
};

/// Solve the subproblem induced by the fixed vertices plus one connected
/// component of free vertices with the naive engine; each order comes
/// with its domains, parallel to it. On success, the component's
/// assignments are merged into `solution`.
bool naive_solve_component(const ChromaticMapProblem& problem,
                           const std::vector<VertexId>& fixed_order,
                           const DomainLists& fixed_domains,
                           const std::vector<VertexId>& component_order,
                           DomainLists component_domains,
                           std::size_t max_backtracks,
                           const exec::CancelToken* cancel,
                           ChromaticMapResult& result,
                           std::unordered_map<VertexId, VertexId>& solution) {
    NaiveSearcher s(problem);
    s.cancel = cancel;
    s.max_backtracks = max_backtracks;
    std::unordered_set<VertexId> in_scope;
    for (VertexId v : fixed_order) {
        s.order.push_back(v);
        in_scope.insert(v);
    }
    for (VertexId v : component_order) {
        s.order.push_back(v);
        in_scope.insert(v);
    }

    // Constraints restricted to simplices fully inside the scope, indexed
    // by their latest-assigned vertex so each is checked exactly once.
    std::unordered_map<VertexId, std::size_t> position;
    for (std::size_t i = 0; i < s.order.size(); ++i) position[s.order[i]] = i;
    for (const Simplex& sigma : problem.domain->complex().simplices()) {
        VertexId last = sigma.vertices().front();
        bool inside = true;
        for (VertexId v : sigma.vertices()) {
            if (in_scope.count(v) == 0) {
                inside = false;
                break;
            }
            if (position.at(v) > position.at(last)) last = v;
        }
        if (inside) s.constraints_by_last[last].push_back(sigma);
    }

    s.domains = fixed_domains;
    for (std::vector<VertexId>& domain : component_domains) {
        s.domains.push_back(std::move(domain));
    }

    const bool found = s.assign(0);
    result.counters.add(s.counters);
    if (!s.exhausted) result.exhausted = false;
    if (found) {
        for (VertexId v : component_order) solution[v] = s.assignment.at(v);
        for (VertexId v : fixed_order) solution[v] = s.assignment.at(v);
    }
    return found;
}

// ---------------------------------------------------------------------------
// Fast engine: forward checking with MRV/degree branching, memoized
// constraint evaluation, nogood learning, conflict-directed backjumping.
// ---------------------------------------------------------------------------

/// Entry cap of the image-evaluation memo (each entry is one (constraint,
/// image fingerprint) -> verdict/mask result; the cap bounds the memo's
/// memory per solve).
constexpr std::size_t kEvalCacheCapacity = std::size_t{1} << 18;

struct FcSearcher {
    FcSearcher(const ChromaticMapProblem& p, const topo::AdjacencyIndex& ix,
               EvalCache& c)
        : problem(p), index(ix), cache(c) {}

    const ChromaticMapProblem& problem;
    const topo::AdjacencyIndex& index;
    // Memoized constraint evaluation and learned conflicts, owned by
    // solve_components and shared across its components; `nogoods` is
    // null when learning is disabled (nogood_capacity == 0).
    EvalCache& cache;
    NogoodStore* nogoods = nullptr;
    const exec::CancelToken* cancel = nullptr;
    std::size_t max_backtracks = 0;

    /// Outcome of one search() call: a witness below this node, a proven
    /// conflict (conflict_var_ names the variable whose conflict set
    /// describes it), or an abort (budget / cancellation — not a proof,
    /// so no conflict set).
    enum class Status { kFound, kConflict, kAbort };

    struct Var {
        VertexId v = 0;
        VertexId value = 0;            // current value, valid iff assigned
        std::uint32_t degree = 0;      // 1-skeleton degree (MRV tie-break)
        std::vector<VertexId> values;  // initial order, never reordered
        std::vector<char> active;      // live-domain flags, trail-restored
        // The constraint that pruned values[i] (null while active). Read
        // only for inactive values, whose pruning frames are still on
        // the stack — so the constraint's other vertices are still
        // assigned to the values that caused the conflict.
        std::vector<const Simplex*> pruned_by;
        std::size_t active_count = 0;
        bool assigned = false;
        bool is_fixed = false;
        // Word-packed mirror of `active`, kept in lockstep by
        // prune()/undo_to(): the FC mask filter intersects it with the
        // memoized allowed mask 64 values at a time instead of testing
        // every value byte-by-byte. Last member so the positional
        // aggregate initializers above it stay valid.
        std::vector<std::uint64_t> active_bits;
    };
    static constexpr std::uint32_t kNoVar = 0xffffffffu;
    std::vector<Var> vars;  // fixed vertices first, then the component's
                            // free vertices in static order
    // Var index of every vertex for the hot constraint scans (vertex ids
    // are bounded by the domain complex); kNoVar for out-of-scope ids.
    std::vector<std::uint32_t> var_of_vertex;
    // Undo log of domain prunings: (variable index, value index).
    std::vector<std::pair<std::size_t, std::size_t>> trail;
    SearchCounters counters;
    bool exhausted = true;
    std::vector<VertexId> image_scratch;  // reused across evaluations
    // Deferred forward-checking work of one try_assign: (constraint,
    // index of its single unassigned vertex). Member so the buffer is
    // allocated once, not per node; valid only within the call that
    // filled it (nothing assigns between the fill and the drain).
    std::vector<std::pair<const Simplex*, std::uint32_t>> fc_pending;

    // Conflict-directed backjumping state: one conflict set per
    // variable, as a bitset over var indices. conf(v) accumulates, while
    // v is the active decision, every variable whose assignment
    // contributed to a failure of one of v's values; when v's values are
    // exhausted, conf(v) is the proven conflict of the whole level, and
    // ancestors absent from it are jumped over. Fixed variables are
    // per-solve constants and never enter a conflict set.
    std::size_t conflict_words = 0;
    std::vector<std::vector<std::uint64_t>> conflict_;  // per variable
    std::vector<std::uint64_t> assign_conflict_;  // try_assign's failure
    std::size_t conflict_var_ = 0;  // owner of the active conflict set

    // The unassigned vars, maintained by swap-removal so the MRV scan
    // touches only live candidates instead of every variable per node.
    std::vector<std::uint32_t> unassigned;
    std::vector<std::uint32_t> unassigned_pos;  // index into `unassigned`

    /// Build var_of_vertex, the unassigned list and the conflict sets;
    /// call once after `vars` is fully populated and pre-assignments are
    /// installed.
    void finalize_vars() {
        VertexId max_v = 0;
        for (const Var& var : vars) max_v = std::max(max_v, var.v);
        var_of_vertex.assign(static_cast<std::size_t>(max_v) + 1, kNoVar);
        for (std::size_t i = 0; i < vars.size(); ++i) {
            var_of_vertex[vars[i].v] = static_cast<std::uint32_t>(i);
        }
        unassigned.clear();
        unassigned_pos.assign(vars.size(), kNoVar);
        for (std::size_t i = 0; i < vars.size(); ++i) {
            vars[i].degree =
                static_cast<std::uint32_t>(index.degree(vars[i].v));
            if (!vars[i].assigned) {
                unassigned_pos[i] =
                    static_cast<std::uint32_t>(unassigned.size());
                unassigned.push_back(static_cast<std::uint32_t>(i));
            }
        }
        conflict_words = (vars.size() + 63) / 64;
        conflict_.assign(vars.size(),
                         std::vector<std::uint64_t>(conflict_words, 0));
        assign_conflict_.assign(conflict_words, 0);
    }

    // --- conflict-set plumbing -----------------------------------------

    void conflict_add(std::vector<std::uint64_t>& set,
                      std::size_t var_idx) const {
        if (vars[var_idx].is_fixed) return;
        set[var_idx >> 6] |= std::uint64_t{1} << (var_idx & 63);
    }

    bool conflict_contains(const std::vector<std::uint64_t>& set,
                           std::size_t var_idx) const {
        return (set[var_idx >> 6] >> (var_idx & 63) & 1) != 0;
    }

    /// into |= from \ {excluded}.
    void conflict_merge(std::vector<std::uint64_t>& into,
                        const std::vector<std::uint64_t>& from,
                        std::size_t excluded) const {
        for (std::size_t w = 0; w < conflict_words; ++w) into[w] |= from[w];
        into[excluded >> 6] &= ~(std::uint64_t{1} << (excluded & 63));
    }

    /// The assigned variables of a pruning/violated constraint, minus
    /// the two local actors (the decision being enumerated and, for
    /// wipeouts, the wiped variable itself).
    void conflict_add_constraint(std::vector<std::uint64_t>& set,
                                 const Simplex& sigma, std::size_t skip_a,
                                 std::size_t skip_b) const {
        for (VertexId u : sigma.vertices()) {
            const std::size_t ui = var_of_vertex[u];
            if (ui == skip_a || ui == skip_b) continue;
            conflict_add(set, ui);
        }
    }

    /// Conservative fallback when a pruning cause is unavailable: blame
    /// every assigned decision, which degrades that one conflict to
    /// chronological behavior without losing soundness.
    void conflict_add_all_assigned(std::vector<std::uint64_t>& set,
                                   std::size_t skip_a,
                                   std::size_t skip_b) const {
        for (std::size_t i = 0; i < vars.size(); ++i) {
            if (!vars[i].assigned || i == skip_a || i == skip_b) continue;
            conflict_add(set, i);
        }
    }

    /// Fill assign_conflict_ with the cause of a violated constraint.
    void conflict_from_violation(const Simplex& sigma,
                                 std::size_t cur_idx) {
        std::fill(assign_conflict_.begin(), assign_conflict_.end(), 0);
        conflict_add_constraint(assign_conflict_, sigma, cur_idx, cur_idx);
    }

    /// Record one proven conflict.
    void learn(std::vector<NogoodLiteral> literals) {
        if (nogoods->record(std::move(literals))) ++counters.nogoods_recorded;
    }

    /// Learn an exhausted level's conflict set as a nogood: every value
    /// of the level's variable failed under exactly the assignments the
    /// set names, and a satisfying map must assign the variable, so the
    /// named assignments are jointly contradictory — the CDCL-style
    /// "learned clause" on top of the wipeout/violation records.
    void record_conflict_set(const std::vector<std::uint64_t>& set) {
        if (nogoods == nullptr) return;
        std::vector<NogoodLiteral> literals;
        for (std::size_t w = 0; w < conflict_words; ++w) {
            std::uint64_t bits = set[w];
            while (bits != 0) {
                const std::size_t u_idx =
                    (w << 6) + static_cast<std::size_t>(
                                   __builtin_ctzll(bits));
                bits &= bits - 1;
                const Var& u = vars[u_idx];
                literals.push_back({u.v, u.value});
            }
        }
        learn(std::move(literals));
    }

    /// Fill assign_conflict_ with the cause of a domain wipeout of
    /// `u_idx`: the assignments behind every pruned value (the same
    /// provenance record_wipeout turns into a nogood).
    void conflict_from_wipeout(std::size_t u_idx, std::size_t cur_idx) {
        std::fill(assign_conflict_.begin(), assign_conflict_.end(), 0);
        const Var& u = vars[u_idx];
        for (std::size_t i = 0; i < u.values.size(); ++i) {
            if (u.active[i]) continue;
            const Simplex* sigma = u.pruned_by[i];
            if (sigma == nullptr) {
                conflict_add_all_assigned(assign_conflict_, u_idx, cur_idx);
                return;
            }
            conflict_add_constraint(assign_conflict_, *sigma, u_idx,
                                    cur_idx);
        }
    }

    void mark_assigned(std::size_t var_idx) {
        const std::uint32_t pos = unassigned_pos[var_idx];
        const std::uint32_t last = unassigned.back();
        unassigned[pos] = last;
        unassigned_pos[last] = pos;
        unassigned.pop_back();
        unassigned_pos[var_idx] = kNoVar;
    }

    void mark_unassigned(std::size_t var_idx) {
        unassigned_pos[var_idx] =
            static_cast<std::uint32_t>(unassigned.size());
        unassigned.push_back(static_cast<std::uint32_t>(var_idx));
    }

    std::uint32_t var_at(VertexId u) const {
        return u < var_of_vertex.size() ? var_of_vertex[u] : kNoVar;
    }

    bool stopped() const {
        return cancel != nullptr && cancel->cancelled();
    }

    /// Leaf constraint check for a fully assigned indexed simplex, via
    /// the evaluation memo.
    bool constraint_holds(const Simplex* sigma_ptr) {
        const Simplex& sigma = *sigma_ptr;
        image_scratch.clear();
        for (VertexId v : sigma.vertices()) {
            image_scratch.push_back(vars[var_of_vertex[v]].value);
        }
        return cache.image_allowed(problem, index.id_of(sigma_ptr), sigma,
                                   image_scratch);
    }

    /// Reset a variable's live-domain state to "everything active".
    static void activate_all(Var& var) {
        const std::size_t n = var.values.size();
        var.active.assign(n, 1);
        var.pruned_by.assign(n, nullptr);
        var.active_count = n;
        var.active_bits.assign((n + 63) / 64, 0);
        for (std::size_t i = 0; i < n; ++i) {
            var.active_bits[i >> 6] |= std::uint64_t{1} << (i & 63);
        }
    }

    void prune(std::size_t var_idx, std::size_t value_idx,
               const Simplex* cause) {
        vars[var_idx].active[value_idx] = 0;
        vars[var_idx].active_bits[value_idx >> 6] &=
            ~(std::uint64_t{1} << (value_idx & 63));
        vars[var_idx].pruned_by[value_idx] = cause;
        --vars[var_idx].active_count;
        trail.emplace_back(var_idx, value_idx);
    }

    /// Record the conflict set of a fully-assigned constraint violation:
    /// the simplex's own assignments (fixed vertices excluded — their
    /// values are per-solve constants, so they can never differ when the
    /// nogood fires).
    void record_violation(const Simplex& sigma) {
        if (nogoods == nullptr) return;
        std::vector<NogoodLiteral> literals;
        literals.reserve(sigma.size());
        for (VertexId u : sigma.vertices()) {
            const Var& uvar = vars[var_of_vertex[u]];
            if (uvar.is_fixed) continue;
            literals.push_back({u, uvar.value});
        }
        learn(std::move(literals));
    }

    /// Record the conflict set of a domain wipeout of `u_idx`: for every
    /// pruned value, the assignments of its pruning constraint's other
    /// vertices. Under exactly these assignments every value of the
    /// (root-propagated, branch-independent) domain is excluded, so the
    /// set is a sound nogood regardless of assignment order.
    void record_wipeout(std::size_t u_idx) {
        if (nogoods == nullptr) return;
        const Var& u = vars[u_idx];
        std::vector<NogoodLiteral> literals;
        for (std::size_t i = 0; i < u.values.size(); ++i) {
            if (u.active[i]) continue;
            const Simplex* sigma = u.pruned_by[i];
            if (sigma == nullptr) return;  // cause lost; skip recording
            for (VertexId w : sigma->vertices()) {
                const Var& wvar = vars[var_of_vertex[w]];
                if (w == u.v || wvar.is_fixed) continue;
                literals.push_back({w, wvar.value});
            }
        }
        learn(std::move(literals));
    }

    void undo_to(std::size_t mark) {
        while (trail.size() > mark) {
            const auto [var_idx, value_idx] = trail.back();
            trail.pop_back();
            vars[var_idx].active[value_idx] = 1;
            vars[var_idx].active_bits[value_idx >> 6] |=
                std::uint64_t{1} << (value_idx & 63);
            ++vars[var_idx].active_count;
        }
    }

    /// Assign v := w and propagate: completed constraints are checked, and
    /// every in-scope constraint one vertex short of completion filters
    /// that vertex's live domain. Returns false on a violated constraint
    /// or a domain wipeout (the caller must undo_to its own trail mark
    /// either way).
    ///
    /// Two passes over the incident constraints. Pass 1 classifies and
    /// immediately checks every completed (leaf) constraint — the
    /// admissible bound test of this branch: each check is one memo
    /// probe, writes nothing, and a violation rejects the assignment
    /// before any forward-checking work (domain writes + trail entries
    /// + their undo) is paid for. Pass 2 runs the deferred FC filters.
    /// Relative order within each class is the incident order, so the
    /// prune sequence is deterministic; leaf-before-filter only changes
    /// WHICH sound conflict a doomed assignment fails on (and hence
    /// which nogood is learned), never whether it fails — verdicts and
    /// witnesses are untouched.
    bool try_assign(std::size_t var_idx, VertexId w) {
        Var& var = vars[var_idx];
        var.assigned = true;
        var.value = w;
        mark_assigned(var_idx);
        fc_pending.clear();
        for (const Simplex* sigma_ptr : index.incident_simplices(var.v)) {
            const Simplex& sigma = *sigma_ptr;
            std::uint32_t unassigned_idx = kNoVar;
            std::size_t num_unassigned = 0;
            bool in_scope = true;
            for (VertexId u : sigma.vertices()) {
                const std::uint32_t ui = var_at(u);
                if (ui == kNoVar) {
                    in_scope = false;
                    break;
                }
                if (!vars[ui].assigned) {
                    unassigned_idx = ui;
                    if (++num_unassigned > 1) break;
                }
            }
            if (!in_scope) continue;
            if (num_unassigned == 0) {
                if (!constraint_holds(sigma_ptr)) {
                    record_violation(sigma);
                    conflict_from_violation(sigma, var_idx);
                    return false;
                }
            } else if (num_unassigned == 1) {
                fc_pending.emplace_back(sigma_ptr, unassigned_idx);
            }
        }
        for (const auto& [sigma_ptr, u_idx32] : fc_pending) {
            const Simplex& sigma = *sigma_ptr;
            const std::size_t u_idx = u_idx32;
            Var& uvar = vars[u_idx];
            // The constraint complex and the assigned part of the
            // image are fixed across the candidate loop; build the
            // image once with a hole at the unassigned slot.
            std::vector<VertexId>& image = image_scratch;
            image.clear();
            std::size_t u_slot = 0;
            for (std::size_t j = 0; j < sigma.vertices().size(); ++j) {
                const VertexId u = sigma.vertices()[j];
                if (u == uvar.v) {
                    u_slot = j;
                    image.push_back(EvalCache::kHole);
                } else {
                    image.push_back(vars[var_of_vertex[u]].value);
                }
            }
            // One memoized lookup filters the whole candidate list: the
            // mask is keyed by the neighborhood-image fingerprint (cid +
            // assigned values + hole). The filter itself is the
            // word-wise pass `live & ~allowed` over the packed domain —
            // only the values actually being pruned cost anything beyond
            // one AND-NOT per 64 candidates (ctz walks the remainder in
            // ascending index order, the same sequence as a per-value
            // loop).
            const std::vector<std::uint64_t>& mask =
                cache.allowed_mask(problem, index.id_of(sigma_ptr), sigma,
                                   image, u_slot, uvar.values);
            const std::size_t words = uvar.active_bits.size();
            for (std::size_t wd = 0; wd < words; ++wd) {
                std::uint64_t removed = uvar.active_bits[wd] & ~mask[wd];
                while (removed != 0) {
                    const std::size_t i =
                        (wd << 6) +
                        static_cast<std::size_t>(__builtin_ctzll(removed));
                    removed &= removed - 1;
                    prune(u_idx, i, sigma_ptr);
                }
            }
            if (uvar.active_count == 0) {
                record_wipeout(u_idx);
                conflict_from_wipeout(u_idx, var_idx);
                return false;
            }
        }
        return true;
    }

    void unassign(std::size_t var_idx) {
        vars[var_idx].assigned = false;
        mark_unassigned(var_idx);
    }

    /// Dense assignment view for the nogood store.
    bool value_of(VertexId u, VertexId& out) const {
        const std::uint32_t ui = var_at(u);
        if (ui == kNoVar || !vars[ui].assigned) return false;
        out = vars[ui].value;
        return true;
    }

    /// The next branching variable: the MRV/degree/id minimum over the
    /// live unassigned list (the criterion is a total order, so the
    /// list's arbitrary order picks the same variable a full scan
    /// would). Returns vars.size() when all assigned.
    std::size_t pick_variable() const {
        std::size_t best = vars.size();
        for (const std::uint32_t i : unassigned) {
            const Var& var = vars[i];
            if (best == vars.size()) {
                best = i;
                continue;
            }
            const Var& b = vars[best];
            if (var.active_count != b.active_count) {
                if (var.active_count < b.active_count) best = i;
            } else if (var.degree != b.degree) {
                if (var.degree > b.degree) best = i;
            } else if (var.v < b.v) {
                best = i;
            }
        }
        return best;
    }

    Status search() {
        if (stopped()) {
            exhausted = false;
            return Status::kAbort;
        }
        const std::size_t var_idx = pick_variable();
        if (var_idx == vars.size()) return Status::kFound;
        Var& var = vars[var_idx];
        std::vector<std::uint64_t>& conf = conflict_[var_idx];
        std::fill(conf.begin(), conf.end(), 0);
        for (std::size_t i = 0; i < var.values.size(); ++i) {
            if (!var.active[i]) {
                // The value is unavailable because an ancestor's
                // constraint pruned it; that ancestor could restore it,
                // so it belongs in this level's conflict set.
                const Simplex* cause = var.pruned_by[i];
                if (cause == nullptr) {
                    conflict_add_all_assigned(conf, var_idx, var_idx);
                } else {
                    conflict_add_constraint(conf, *cause, var_idx, var_idx);
                }
                continue;
            }
            if (nogoods != nullptr && !nogoods->empty()) {
                const std::vector<NogoodLiteral>* blocking =
                    nogoods->blocking_nogood(
                        var.v, var.values[i],
                        [this](VertexId u, VertexId& out) {
                            return value_of(u, out);
                        });
                if (blocking != nullptr) {
                    // This assignment would recreate a recorded
                    // conflict: skip it without redoing the propagation
                    // that proved it (not counted as a backtrack —
                    // prunings are reported separately). The nogood's
                    // other literals name the decisions responsible.
                    ++counters.nogood_prunings;
                    for (const NogoodLiteral& l : *blocking) {
                        if (l.var == var.v) continue;
                        conflict_add(conf, var_of_vertex[l.var]);
                    }
                    continue;
                }
            }
            const std::size_t mark = trail.size();
            if (try_assign(var_idx, var.values[i])) {
                const Status st = search();
                if (st == Status::kFound) return st;
                if (st == Status::kAbort) {
                    undo_to(mark);
                    unassign(var_idx);
                    return st;
                }
                // A proven conflict below. If this decision is not in
                // its conflict set, no other value of this variable can
                // resolve it: pop the level without re-enumerating
                // (the backjump), propagating the same conflict.
                if (!conflict_contains(conflict_[conflict_var_], var_idx)) {
                    undo_to(mark);
                    unassign(var_idx);
                    ++counters.backjumps;
                    return Status::kConflict;
                }
                conflict_merge(conf, conflict_[conflict_var_], var_idx);
            } else {
                // try_assign failed directly; it left the cause in
                // assign_conflict_.
                conflict_merge(conf, assign_conflict_, var_idx);
            }
            undo_to(mark);
            unassign(var_idx);
            if (++counters.backtracks > max_backtracks || stopped()) {
                exhausted = false;
                return Status::kAbort;
            }
        }
        if (exhausted) record_conflict_set(conf);
        conflict_var_ = var_idx;
        return Status::kConflict;
    }
};

bool fc_solve_component(const ChromaticMapProblem& problem,
                        const topo::AdjacencyIndex& index,
                        const SolverConfig& config,
                        const std::vector<VertexId>& fixed_order,
                        const DomainLists& fixed_domains,
                        const std::vector<VertexId>& component_order,
                        DomainLists component_domains,
                        EvalCache& cache, NogoodStore* nogoods,
                        ChromaticMapResult& result,
                        std::unordered_map<VertexId, VertexId>& solution) {
    FcSearcher s(problem, index, cache);
    s.cancel = config.cancel;
    s.max_backtracks = config.max_backtracks;
    s.nogoods = nogoods;
    // The fixed assignments were checked once, up front, and propagated
    // into this component's domains (csp_setup::FixedRoot), so they are
    // just installed (before finalize_vars, which snapshots the
    // unassigned list from the assigned flags).
    for (std::size_t i = 0; i < fixed_order.size(); ++i) {
        s.vars.push_back(
            {fixed_order[i], 0, 0, fixed_domains[i], {}, {}, 0, false, true,
             {}});
    }
    for (std::size_t i = 0; i < component_order.size(); ++i) {
        s.vars.push_back({component_order[i], 0, 0,
                          std::move(component_domains[i]), {}, {}, 0, false,
                          false, {}});
    }
    for (FcSearcher::Var& var : s.vars) {
        FcSearcher::activate_all(var);
        if (var.is_fixed) {
            var.assigned = true;
            var.value = var.values.front();
        }
    }
    s.finalize_vars();

    // The component start is a reference-free safe point: retired
    // nogood buffers from the previous component can be physically
    // reclaimed.
    if (nogoods != nullptr) nogoods->reclaim();

    const bool found = s.search() == FcSearcher::Status::kFound;
    result.counters.add(s.counters);
    if (!s.exhausted) result.exhausted = false;
    if (found) {
        for (const FcSearcher::Var& var : s.vars) solution[var.v] = var.value;
    }
    return found;
}

// ---------------------------------------------------------------------------
// Decomposition + engine dispatch.
// ---------------------------------------------------------------------------

ChromaticMapResult solve_components(const ChromaticMapProblem& problem,
                                    const topo::AdjacencyIndex& index,
                                    const Decomposition& dec,
                                    const DomainLists& fixed_domains,
                                    csp_setup::FixedRoot* root,
                                    ConstraintTable& constraints,
                                    const SolverConfig& config) {
    ChromaticMapResult result;
    result.exhausted = true;
    std::unordered_map<VertexId, VertexId> solution;

    const bool naive_engine = config.engine == SolverEngine::kNaive;

    // The incremental layers are shared across the components: constraint
    // ids are global to the domain complex, and nogoods from one component
    // mention variables disjoint from every other component's, so sharing
    // is sound.
    std::optional<EvalCache> cache;
    if (!naive_engine) {
        cache.emplace(constraints, kEvalCacheCapacity);
    }
    // Cross-solve reuse: when the problem builder wired a SharedNogoodPool,
    // import every pool nogood whose variables all translate into the
    // current domain (via the builder's stable (position, color) keys),
    // and publish this solve's newly learned nogoods on the way out. The
    // store is sized so seeded entries do not consume the learning
    // budget. Reused nogoods only prune, so seeding changes backtrack
    // counts, never verdicts or witnesses.
    const bool learning = !naive_engine && config.nogood_capacity > 0;
    const bool use_pool = learning && problem.nogood_pool != nullptr &&
                          !problem.nogood_scope.empty() &&
                          static_cast<bool>(problem.pool_var_key);
    // One vertex -> pool-key table per solve, built lazily (each
    // pool_var_key call takes the pool's mutex for an exact-rational map
    // probe — worth paying once, not per literal) and shared by the seed
    // and publish translations below. Untouched when the scope is empty
    // and nothing gets learned.
    std::optional<std::unordered_map<VertexId, SharedNogoodPool::VarKeyId>>
        key_of_vertex;
    const auto pool_keys = [&]() -> const auto& {
        if (!key_of_vertex.has_value()) {
            key_of_vertex.emplace();
            key_of_vertex->reserve(problem.domain->vertex_ids().size());
            for (VertexId v : problem.domain->vertex_ids()) {
                key_of_vertex->emplace(v, problem.pool_var_key(v));
            }
        }
        return *key_of_vertex;
    };
    std::optional<NogoodStore> nogoods;
    std::size_t seeded = 0;
    if (learning) {
        std::vector<std::vector<NogoodLiteral>> seeds;
        // An empty scope has nothing to import: skip the key translation
        // outright on the cold first solve.
        if (use_pool &&
            problem.nogood_pool->size(problem.nogood_scope) > 0) {
            std::unordered_map<SharedNogoodPool::VarKeyId, VertexId>
                vertex_of_key;
            vertex_of_key.reserve(pool_keys().size());
            for (const auto& [v, key] : pool_keys()) {
                vertex_of_key.emplace(key, v);
            }
            problem.nogood_pool->for_each(
                problem.nogood_scope,
                [&](const std::vector<SharedNogoodPool::PortableLiteral>&
                        portable) {
                    std::vector<NogoodLiteral> literals;
                    literals.reserve(portable.size());
                    for (const SharedNogoodPool::PortableLiteral& l :
                         portable) {
                        const auto it = vertex_of_key.find(l.var_key);
                        if (it == vertex_of_key.end()) return;  // untranslatable
                        literals.push_back({it->second, l.value});
                    }
                    seeds.push_back(std::move(literals));
                });
        }
        // The store collects when full instead of rejecting — the
        // capacity bounds the live set, not the learning. Seeds are not
        // exempt from eviction: a seed that never fires is exactly the
        // kind of ballast GC exists to shed.
        nogoods.emplace(config.nogood_capacity + seeds.size());
        for (std::vector<NogoodLiteral>& s : seeds) {
            if (nogoods->record(std::move(s))) ++seeded;
        }
    }

    // Each component is set up just before its search: its initial
    // domains, the root propagation of the fixed vertices into it (fast
    // engine only; the naive reference keeps the full domains), and its
    // ranking, after propagation so the fast engine orders only the
    // candidates that survived it. A component the search never reaches
    // is never set up.
    const auto solve_component = [&](const std::vector<VertexId>& order) {
        DomainLists domains = csp_setup::initial_domains(problem, order);
        // A root wipeout proves the component, and so the problem,
        // unsatisfiable: no search decision is involved.
        if (root != nullptr && !root->propagate(order, domains)) return false;
        csp_setup::rank_domains(problem, order, domains);
        if (naive_engine) {
            return naive_solve_component(
                problem, dec.fixed_order, fixed_domains, order,
                std::move(domains), config.max_backtracks, config.cancel,
                result, solution);
        }
        return fc_solve_component(
            problem, index, config, dec.fixed_order, fixed_domains, order,
            std::move(domains), *cache,
            nogoods.has_value() ? &*nogoods : nullptr, result, solution);
    };

    // The naive reference validates the pre-assignment itself, by its
    // ordinary constraint checks on the fixed-only subproblem, whose
    // search starts at a cancellation checkpoint. The fast engine's
    // set-up checked it already (FixedRoot::check); it keeps the
    // checkpoint, so a fired token stops even a problem without free
    // vertices.
    bool found = false;
    if (naive_engine) {
        found = naive_solve_component(problem, dec.fixed_order,
                                      fixed_domains, {}, {},
                                      config.max_backtracks, config.cancel,
                                      result, solution);
    } else if (config.cancel != nullptr && config.cancel->cancelled()) {
        result.exhausted = false;
    } else {
        found = true;
    }
    if (found) {
        for (const std::vector<VertexId>& order : dec.component_orders) {
            if (!solve_component(order)) {
                found = false;
                break;
            }
        }
    }

    if (cache.has_value()) {
        result.counters.eval_cache_hits = cache->stats().hits();
        result.counters.eval_cache_misses = cache->stats().misses();
    }
    if (nogoods.has_value()) {
        // nogoods_recorded was tallied at each learn() (seeds never pass
        // through it); here only the eviction total and the cross-solve
        // publish remain.
        result.counters.pool_seeded = seeded;
        result.counters.nogoods_evicted = nogoods->evicted();
        if (use_pool) {
            // Publish this solve's own learning: seeds sit at the front
            // of the append-only store.
            const auto& all = nogoods->all();
            for (std::size_t i = seeded; i < all.size(); ++i) {
                // Retired-and-reclaimed slots are empty vectors; an
                // empty literal set must never reach the pool (it would
                // read as "everything is contradictory").
                if (all[i].empty()) continue;
                std::vector<SharedNogoodPool::PortableLiteral> portable;
                portable.reserve(all[i].size());
                for (const NogoodLiteral& l : all[i]) {
                    portable.push_back({pool_keys().at(l.var), l.value});
                }
                if (problem.nogood_pool->publish(problem.nogood_scope,
                                                 std::move(portable))) {
                    ++result.counters.pool_published;
                }
            }
        }
    }

    if (found) {
        // Also when there is no component to carry them.
        for (std::size_t i = 0; i < dec.fixed_order.size(); ++i) {
            solution[dec.fixed_order[i]] = fixed_domains[i].front();
        }
        result.map = SimplicialMap(std::move(solution));
    }
    return result;
}

}  // namespace

ChromaticMapResult solve_chromatic_map(const ChromaticMapProblem& problem,
                                       const SolverConfig& config) {
    require(problem.domain != nullptr && problem.codomain != nullptr,
            "solve_chromatic_map: missing complexes");
    require(static_cast<bool>(problem.allowed),
            "solve_chromatic_map: missing constraint function");

    // The per-vertex simplex lists exist for forward checking; the naive
    // engine only needs the neighbor sets for decomposition.
    const bool naive_engine = config.engine == SolverEngine::kNaive;
    const topo::AdjacencyIndex index(problem.domain->complex(),
                                     !naive_engine);
    const Decomposition dec = csp_setup::decompose(problem, index);
    // Each constraint complex is resolved once per solve, by the root
    // propagation or the search, whichever asks first.
    ConstraintTable constraints(problem, index.id_bound());
    const DomainLists fixed_domains =
        csp_setup::initial_domains(problem, dec.fixed_order);
    // The fast engine checks the fixed assignments among themselves once,
    // before any component: a conflict there proves unsatisfiability
    // outright (they are not search decisions). The components' set-up
    // follows, one at a time, in solve_components.
    std::optional<csp_setup::FixedRoot> root;
    if (!naive_engine) {
        root.emplace(problem, index, constraints, dec.fixed_order,
                     fixed_domains);
        if (!root->check()) {
            ChromaticMapResult result;
            result.exhausted = true;
            return result;
        }
    }

    ChromaticMapResult result = solve_components(
        problem, index, dec, fixed_domains, root ? &*root : nullptr,
        constraints, config);
    if (result.map.has_value()) {
        const std::string err = check_chromatic_map(problem, *result.map);
        ensure(err.empty(), "solve_chromatic_map: solver bug: " + err);
    }
    return result;
}

std::string check_chromatic_map(const ChromaticMapProblem& problem,
                                const SimplicialMap& map) {
    if (!map.is_simplicial(problem.domain->complex(),
                           problem.codomain->complex())) {
        return "not simplicial";
    }
    if (!map.is_chromatic(*problem.domain, *problem.codomain)) {
        return "not chromatic";
    }
    for (const Simplex& sigma : problem.domain->complex().simplices()) {
        if (!problem.allowed(sigma).contains(map.apply(sigma))) {
            return "image of " + sigma.to_string() +
                   " violates its constraint";
        }
    }
    for (const auto& [v, w] : problem.fixed) {
        if (map.apply(v) != w) {
            return "fixed vertex " + std::to_string(v) + " not respected";
        }
    }
    return "";
}

}  // namespace gact::core
