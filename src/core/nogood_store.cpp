#include "core/nogood_store.h"

#include <algorithm>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/hash.h"
#include "util/require.h"

namespace gact::core {

namespace {

std::size_t nogood_hash(const std::vector<NogoodLiteral>& literals) {
    std::size_t seed = literals.size();
    for (const NogoodLiteral& l : literals) {
        gact::hash_combine(seed, l.var);
        gact::hash_combine(seed, l.value);
    }
    return seed;
}

std::size_t portable_hash(
    const std::vector<SharedNogoodPool::PortableLiteral>& literals) {
    std::size_t seed = literals.size();
    for (const SharedNogoodPool::PortableLiteral& l : literals) {
        gact::hash_combine(seed, l.var_key);
        gact::hash_combine(seed, l.value);
    }
    return seed;
}

}  // namespace

NogoodStore::NogoodStore(std::size_t capacity) : capacity_(capacity) {}

NogoodStore::NogoodStore(std::size_t capacity, Hasher hasher)
    : capacity_(capacity), hasher_(std::move(hasher)) {}

bool NogoodStore::record(std::vector<NogoodLiteral> literals) {
    if (literals.empty() || capacity_ == 0) return false;
    std::sort(literals.begin(), literals.end());
    literals.erase(std::unique(literals.begin(), literals.end()),
                   literals.end());
    // Dedup inside the hash bucket by comparing the canonical literal
    // vectors: hash equality is a hint, never the verdict. (The previous
    // hash-only dedup silently dropped a genuinely new nogood on every
    // collision — sound, since the store only prunes, but an invisible
    // learning loss that corrupted the recorded/pruning statistics.)
    // Dedup runs before the capacity gate so a re-derived conflict at a
    // full store counts as the duplicate it is, not as learning loss —
    // and the probe is a find(), never operator[], so rejected records
    // leave no empty bucket behind (the capacity bound must bound the
    // whole store, including its index). Retired ids left the buckets
    // at collection time, so a re-proved forgotten conflict is
    // re-learned here, not mistaken for a duplicate of a dead entry.
    const std::size_t h =
        hasher_ ? hasher_(literals) : nogood_hash(literals);
    const auto bucket_it = by_hash_.find(h);
    if (bucket_it != by_hash_.end()) {
        for (const std::uint32_t id : bucket_it->second) {
            if (nogoods_[id] == literals) {
                ++rejected_as_duplicate_;
                return false;
            }
        }
    }
    if (live_ >= capacity_) collect();

    const auto id = static_cast<std::uint32_t>(nogoods_.size());
    by_hash_[h].push_back(id);
    for (const NogoodLiteral& l : literals) {
        watch_[literal_key(l.var, l.value)].push_back(id);
    }
    nogoods_.push_back(std::move(literals));
    // Born with one halving's worth of grace so a fresh nogood is not
    // the collector's first pick before it ever gets a chance to fire.
    activity_.push_back(2);
    retired_.push_back(0);
    ++live_;
    return true;
}

void NogoodStore::collect() {
    // Keep half: the evicted headroom is what amortizes the O(live)
    // index rebuild below. Clamped so a collection keeps at least one
    // nogood and frees at least one slot even at tiny capacities.
    const std::size_t target =
        std::min(std::max<std::size_t>(capacity_ / 2, 1), capacity_ - 1);
    if (live_ <= target) return;

    std::vector<std::uint32_t> live_ids;
    live_ids.reserve(live_);
    for (std::uint32_t id = 0; id < nogoods_.size(); ++id) {
        if (retired_[id] == 0) live_ids.push_back(id);
    }
    // Eviction priority: least active first; among equals the widest
    // nogood goes first (a narrow nogood prunes more per probe), then
    // the oldest. The full sort keeps the policy deterministic (any
    // sound pruning set preserves verdicts, but determinism keeps runs
    // reproducible for debugging).
    std::sort(live_ids.begin(), live_ids.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  if (activity_[a] != activity_[b]) {
                      return activity_[a] < activity_[b];
                  }
                  if (nogoods_[a].size() != nogoods_[b].size()) {
                      return nogoods_[a].size() > nogoods_[b].size();
                  }
                  return a < b;
              });
    const std::size_t n_evict = live_ids.size() - target;
    for (std::size_t i = 0; i < n_evict; ++i) {
        const std::uint32_t id = live_ids[i];
        // Logical retirement only: the deque slot and literal buffer
        // stay until reclaim(), preserving references a searcher may
        // still hold.
        retired_[id] = 1;
        pending_reclaim_.push_back(id);
    }
    live_ -= n_evict;
    evicted_ += n_evict;
    ++gc_runs_;

    // Drop retired ids from both indices so they stop blocking and
    // stop shadowing re-learned duplicates. O(live + buckets) — paid
    // once per (capacity - target) admissions.
    const auto sweep = [this](auto& index) {
        for (auto it = index.begin(); it != index.end();) {
            auto& ids = it->second;
            ids.erase(std::remove_if(ids.begin(), ids.end(),
                                     [this](std::uint32_t id) {
                                         return retired_[id] != 0;
                                     }),
                      ids.end());
            // Empty buckets go too: the capacity bound covers the
            // index, and record()'s dedup probe must stay a find().
            it = ids.empty() ? index.erase(it) : std::next(it);
        }
    };
    sweep(watch_);
    sweep(by_hash_);

    // Age every survivor: activity is a recency-weighted count, so a
    // nogood that stops firing decays toward eviction.
    for (std::uint32_t& a : activity_) a >>= 1;
}

std::size_t NogoodStore::reclaim() {
    const std::size_t freed = pending_reclaim_.size();
    for (const std::uint32_t id : pending_reclaim_) {
        // Free the buffer but keep the (now empty) deque slot: ids must
        // stay stable for the pool-publish scan.
        std::vector<NogoodLiteral>().swap(nogoods_[id]);
    }
    pending_reclaim_.clear();
    return freed;
}

SharedNogoodPool::SharedNogoodPool(std::size_t capacity_per_scope)
    : capacity_(capacity_per_scope) {}

SharedNogoodPool::VarKeyId SharedNogoodPool::intern(
    const topo::BaryPoint& position, topo::Color color) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return intern_locked(position, color);
}

SharedNogoodPool::VarKeyId SharedNogoodPool::intern_locked(
    const topo::BaryPoint& position, topo::Color color) {
    const auto key = std::make_pair(position, color);
    const auto it = key_index_.find(key);
    if (it != key_index_.end()) return it->second;
    const auto id = static_cast<VarKeyId>(key_index_.size());
    key_index_.emplace(key, id);
    return id;
}

bool SharedNogoodPool::publish(const std::string& scope,
                               std::vector<PortableLiteral> literals) {
    if (literals.empty() || capacity_ == 0) return false;
    std::sort(literals.begin(), literals.end());
    literals.erase(std::unique(literals.begin(), literals.end()),
                   literals.end());

    const std::lock_guard<std::mutex> lock(mutex_);
    return publish_locked(scope, std::move(literals));
}

bool SharedNogoodPool::publish_locked(const std::string& scope,
                                      std::vector<PortableLiteral> literals) {
    Scope& s = scopes_[scope];
    const std::size_t h = portable_hash(literals);
    const auto bucket_it = s.by_hash.find(h);
    if (bucket_it != s.by_hash.end()) {
        for (const std::uint32_t id : bucket_it->second) {
            if (s.nogoods[id] == literals) {
                ++rejected_as_duplicate_;
                return false;
            }
        }
    }
    if (s.nogoods.size() >= capacity_) {
        ++rejected_at_capacity_;
        return false;
    }
    s.by_hash[h].push_back(static_cast<std::uint32_t>(s.nogoods.size()));
    s.nogoods.push_back(std::move(literals));
    ++published_;
    return true;
}

void SharedNogoodPool::for_each(
    const std::string& scope,
    const std::function<void(const std::vector<PortableLiteral>&)>& fn)
    const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = scopes_.find(scope);
    if (it == scopes_.end()) return;
    for (const std::vector<PortableLiteral>& n : it->second.nogoods) fn(n);
}

std::size_t SharedNogoodPool::size(const std::string& scope) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = scopes_.find(scope);
    return it == scopes_.end() ? 0 : it->second.nogoods.size();
}

std::size_t SharedNogoodPool::published() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return published_;
}

std::size_t SharedNogoodPool::rejected_as_duplicate() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return rejected_as_duplicate_;
}

std::size_t SharedNogoodPool::rejected_at_capacity() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return rejected_at_capacity_;
}

// --- persistence (format spec: docs/ARCHITECTURE.md) -----------------------
//
//   gact-nogood-pool v1
//   keys <count>
//   key <id> <color> <ncoords> <vertex>:<num>/<den> ...
//   scopes <count>
//   scope <nogood-count> <scope string to end of line>
//   n <nliterals> <var_key>:<value> ...
//   end
//
// Rationals are written num/den exactly (never floats); key ids are
// file-local and re-interned on load, so a load composes with live
// interning and with previously loaded files.

namespace {

constexpr const char* kPoolMagic = "gact-nogood-pool v1";

/// Strict full-token u32 parse: the ENTIRE string must be digits (a
/// corrupted "1x" must be a rejection, not a silent 1 — a mangled
/// literal loaded as the wrong nogood would be unsound pruning, the one
/// failure mode persistence must never introduce).
bool parse_u32(const std::string& s, std::uint32_t& out) {
    if (s.empty()) return false;
    try {
        std::size_t pos = 0;
        const unsigned long v = std::stoul(s, &pos);
        if (pos != s.size() || v > 0xffffffffUL) return false;
        out = static_cast<std::uint32_t>(v);
    } catch (const std::exception&) {
        return false;
    }
    return true;
}

/// Strict full-token i64 parse (for rational components; sign allowed).
bool parse_i64(const std::string& s, std::int64_t& out) {
    if (s.empty()) return false;
    try {
        std::size_t pos = 0;
        const long long v = std::stoll(s, &pos);
        if (pos != s.size()) return false;
        out = v;
    } catch (const std::exception&) {
        return false;
    }
    return true;
}

/// Parse "a:b" with both halves full non-negative integers.
bool parse_pair_u32(const std::string& token, std::uint32_t& a,
                    std::uint32_t& b) {
    const auto colon = token.find(':');
    if (colon == std::string::npos) return false;
    return parse_u32(token.substr(0, colon), a) &&
           parse_u32(token.substr(colon + 1), b);
}

/// Parse "<vertex>:<num>/<den>" into one barycentric coordinate.
bool parse_coord(const std::string& token, topo::VertexId& vertex,
                 gact::Rational& weight) {
    const auto colon = token.find(':');
    if (colon == std::string::npos) return false;
    const auto slash = token.find('/', colon);
    if (slash == std::string::npos) return false;
    std::uint32_t v = 0;
    std::int64_t num = 0;
    std::int64_t den = 0;
    if (!parse_u32(token.substr(0, colon), v) ||
        !parse_i64(token.substr(colon + 1, slash - colon - 1), num) ||
        !parse_i64(token.substr(slash + 1), den)) {
        return false;
    }
    try {
        weight = gact::Rational(num, den);  // throws on den == 0
    } catch (const std::exception&) {
        return false;
    }
    vertex = static_cast<topo::VertexId>(v);
    return true;
}

/// Reject trailing tokens on a fully parsed line (an undercounting
/// corrupted "<n>" prefix must not silently drop literals — dropping
/// literals makes a nogood strictly stronger, which is unsound).
bool line_exhausted(std::istringstream& in) {
    std::string extra;
    return !(in >> extra);
}

}  // namespace

/// The staged contents of one parsed pool file: file-local key ids plus
/// the nogoods that reference them. Produced lock-free by parse_file(),
/// committed under the lock by merge_parsed_locked().
struct SharedNogoodPool::ParsedFile {
    struct FileNogood {
        std::string scope;
        std::vector<PortableLiteral> literals;  // file-local var keys
    };
    std::unordered_map<VarKeyId, std::pair<topo::BaryPoint, topo::Color>>
        keys;
    std::vector<FileNogood> nogoods;
};

std::string SharedNogoodPool::serialize_locked(std::string& contents) const {
    for (const auto& [scope, s] : scopes_) {
        (void)s;
        if (scope.find('\n') != std::string::npos) {
            return "scope contains a newline and cannot be serialized";
        }
    }
    std::ostringstream out;
    out << kPoolMagic << "\n";
    out << "keys " << key_index_.size() << "\n";
    for (const auto& [key, id] : key_index_) {
        out << "key " << id << " " << key.second << " "
            << key.first.coords().size();
        for (const auto& [vertex, weight] : key.first.coords()) {
            out << " " << vertex << ":" << weight.num() << "/"
                << weight.den();
        }
        out << "\n";
    }
    out << "scopes " << scopes_.size() << "\n";
    for (const auto& [scope, s] : scopes_) {
        out << "scope " << s.nogoods.size() << " " << scope << "\n";
        for (const std::vector<PortableLiteral>& nogood : s.nogoods) {
            out << "n " << nogood.size();
            for (const PortableLiteral& l : nogood) {
                out << " " << l.var_key << ":" << l.value;
            }
            out << "\n";
        }
    }
    out << "end\n";
    contents = out.str();
    return "";
}

std::string SharedNogoodPool::save(const std::string& path) {
    // Merge-on-save: fold in whatever another process persisted to this
    // file since we loaded it (or never did), so alternating writers
    // union their learning rather than clobber it. The parse diagnostic
    // is deliberately dropped — a missing file is the ordinary
    // first-save cold start, and a corrupt one holds no learning worth
    // keeping, so both simply get overwritten below. The file is read
    // and parsed BEFORE taking the lock: a live server snapshots its
    // pool while solves keep publishing, and those publishes must only
    // ever wait on in-memory work, never on the disk.
    ParsedFile existing;
    const std::string parse_err = parse_file(path, existing);

    std::string contents;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (parse_err.empty()) merge_parsed_locked(existing);
        const std::string err = serialize_locked(contents);
        if (!err.empty()) return err;
    }
    // The lock is dropped: `contents` is a consistent cut of the pool
    // (publishes landing after it simply make the next snapshot).

    // Write-then-rename so the save is atomic: a crash or a full disk
    // mid-write must never destroy the previously persisted learning —
    // the file either keeps its old contents or becomes the new pool
    // whole (load() depends on whole files; see its all-or-nothing
    // contract). The temp name is per-process AND per-call so neither
    // two fleet processes nor two threads of one process (a snapshot
    // timer racing a shutdown drain) can interleave writes into one
    // tmp; the renames themselves are atomic and last-writer-wins with
    // a whole file either way.
    static std::atomic<unsigned> save_counter{0};
    const std::string tmp_path =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(save_counter.fetch_add(1));
    {
        std::ofstream file(tmp_path, std::ios::trunc);
        if (!file) return "cannot open '" + tmp_path + "' for writing";
        file << contents;
        file.flush();
        if (!file) {
            std::remove(tmp_path.c_str());
            return "write to '" + tmp_path + "' failed";
        }
    }
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
        std::remove(tmp_path.c_str());
        return "cannot rename '" + tmp_path + "' to '" + path + "'";
    }
    return "";
}

std::string SharedNogoodPool::load(const std::string& path) {
    // Same split as save(): parse off the lock, commit under it.
    ParsedFile parsed;
    const std::string err = parse_file(path, parsed);
    if (!err.empty()) return err;
    const std::lock_guard<std::mutex> lock(mutex_);
    merge_parsed_locked(parsed);
    return "";
}

std::string SharedNogoodPool::parse_file(const std::string& path,
                                         ParsedFile& out) {
    std::ifstream file(path);
    if (!file) return "cannot open '" + path + "'";

    // Parse and validate the whole file WITHOUT touching the pool, so
    // any failure below leaves it exactly as it was.
    using FileNogood = ParsedFile::FileNogood;
    auto& file_keys = out.keys;
    auto& file_nogoods = out.nogoods;

    std::string line;
    std::size_t line_no = 0;
    const auto fail = [&](const std::string& what) {
        return "pool file '" + path + "' line " + std::to_string(line_no) +
               ": " + what;
    };
    const auto next_line = [&](const char* expect) -> std::string {
        if (!std::getline(file, line)) {
            line.clear();
            return std::string("truncated file (expected ") + expect + ")";
        }
        ++line_no;
        return "";
    };

    std::string err = next_line("header");
    if (!err.empty()) return fail(err);
    if (line != kPoolMagic) {
        return fail("unsupported header '" + line + "' (expected '" +
                    kPoolMagic + "')");
    }

    try {
        std::string word;
        std::size_t key_count = 0;
        {
            err = next_line("keys <count>");
            if (!err.empty()) return fail(err);
            std::istringstream in(line);
            if (!(in >> word >> key_count) || word != "keys" ||
                !line_exhausted(in)) {
                return fail("expected 'keys <count>'");
            }
        }
        for (std::size_t i = 0; i < key_count; ++i) {
            err = next_line("key line");
            if (!err.empty()) return fail(err);
            std::istringstream in(line);
            std::uint32_t id = 0;
            std::uint32_t color = 0;
            std::size_t ncoords = 0;
            if (!(in >> word >> id >> color >> ncoords) || word != "key") {
                return fail("expected 'key <id> <color> <ncoords> ...'");
            }
            std::vector<std::pair<topo::VertexId, Rational>> coords;
            coords.reserve(ncoords);
            for (std::size_t c = 0; c < ncoords; ++c) {
                std::string token;
                if (!(in >> token)) return fail("missing coordinate");
                topo::VertexId vertex = 0;
                Rational weight;
                if (!parse_coord(token, vertex, weight)) {
                    return fail("bad coordinate '" + token + "'");
                }
                coords.emplace_back(vertex, weight);
            }
            if (!line_exhausted(in)) {
                return fail("trailing tokens on key line");
            }
            // The BaryPoint constructor revalidates the invariants
            // (positive weights summing to 1) and throws on violation;
            // the catch below turns that into a rejection.
            if (!file_keys
                     .emplace(id, std::make_pair(
                                      topo::BaryPoint(std::move(coords)),
                                      static_cast<topo::Color>(color)))
                     .second) {
                return fail("duplicate key id " + std::to_string(id));
            }
        }
        std::size_t scope_count = 0;
        {
            err = next_line("scopes <count>");
            if (!err.empty()) return fail(err);
            std::istringstream in(line);
            if (!(in >> word >> scope_count) || word != "scopes" ||
                !line_exhausted(in)) {
                return fail("expected 'scopes <count>'");
            }
        }
        for (std::size_t sidx = 0; sidx < scope_count; ++sidx) {
            err = next_line("scope line");
            if (!err.empty()) return fail(err);
            std::size_t nogood_count = 0;
            std::string scope;
            {
                std::istringstream in(line);
                if (!(in >> word >> nogood_count) || word != "scope") {
                    return fail("expected 'scope <count> <name>'");
                }
                std::getline(in, scope);
                if (!scope.empty() && scope.front() == ' ') {
                    scope.erase(scope.begin());
                }
                if (scope.empty()) return fail("empty scope name");
            }
            for (std::size_t g = 0; g < nogood_count; ++g) {
                err = next_line("nogood line");
                if (!err.empty()) return fail(err);
                std::istringstream in(line);
                std::size_t nliterals = 0;
                if (!(in >> word >> nliterals) || word != "n") {
                    return fail("expected 'n <count> <var>:<value> ...'");
                }
                FileNogood nogood;
                nogood.scope = scope;
                nogood.literals.reserve(nliterals);
                for (std::size_t l = 0; l < nliterals; ++l) {
                    std::string token;
                    if (!(in >> token)) return fail("missing literal");
                    std::uint32_t var_key = 0;
                    std::uint32_t value = 0;
                    if (!parse_pair_u32(token, var_key, value)) {
                        return fail("bad literal '" + token + "'");
                    }
                    if (file_keys.count(var_key) == 0) {
                        return fail("literal references unknown key id " +
                                    std::to_string(var_key));
                    }
                    nogood.literals.push_back(
                        {var_key, static_cast<topo::VertexId>(value)});
                }
                if (nogood.literals.empty()) {
                    return fail("empty nogood");
                }
                if (!line_exhausted(in)) {
                    return fail("trailing literals beyond the declared "
                                "count");
                }
                file_nogoods.push_back(std::move(nogood));
            }
        }
        err = next_line("'end' trailer");
        if (!err.empty()) return fail(err);
        if (line != "end") return fail("expected 'end' trailer");
    } catch (const std::exception& e) {
        return fail(std::string("invalid geometry: ") + e.what());
    }
    return "";
}

void SharedNogoodPool::merge_parsed_locked(const ParsedFile& parsed) {
    // Commit a parsed file: re-intern every file key (ids are
    // file-local), remap the literals, and publish through the ordinary
    // dedup + capacity path. The caller holds mutex_.
    std::unordered_map<VarKeyId, VarKeyId> remap;
    remap.reserve(parsed.keys.size());
    for (const auto& [file_id, key] : parsed.keys) {
        remap.emplace(file_id, intern_locked(key.first, key.second));
    }
    for (const ParsedFile::FileNogood& nogood : parsed.nogoods) {
        std::vector<PortableLiteral> literals;
        literals.reserve(nogood.literals.size());
        for (const PortableLiteral& l : nogood.literals) {
            literals.push_back({remap.at(l.var_key), l.value});
        }
        std::sort(literals.begin(), literals.end());
        literals.erase(std::unique(literals.begin(), literals.end()),
                       literals.end());
        publish_locked(nogood.scope, std::move(literals));
    }
}

}  // namespace gact::core
