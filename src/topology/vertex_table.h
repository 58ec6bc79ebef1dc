// A flat hash index of vertex ids whose keys live in the owner's arrays.
//
// Subdivisions intern vertices by a key — the provenance pair (p, tau),
// or the exact position plus color — and already keep that key per vertex
// id. A node-based map would store a second copy of every key; this table
// stores only the ids and reads the keys back through the caller. The
// ids need not be vertex ids: the terminating subdivision indexes its
// list of K(T) simplices with one, by position in the list.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "topology/chromatic_complex.h"
#include "topology/geometry.h"

namespace gact::topo {

/// An open-addressing table with linear probing whose slots hold a vertex
/// id and 32 bits of its key's hash. Every operation takes the key's hash
/// and a predicate `same(id)` that compares a stored id's key, read back
/// from the owner, with the key sought; the predicate runs only on slots
/// whose hash bits match. Nothing is erased, and the first id inserted
/// under a key stays the one found. Copies carry ids only, so a copied
/// owner's table reads the copy's arrays. Const access is a pure read,
/// safe from several threads.
class VertexTable {
public:
    /// The id stored under a key equal to the one `same` tests for.
    template <typename Same>
    std::optional<VertexId> find(std::size_t hash, Same&& same) const {
        if (slots_.empty()) return std::nullopt;
        const std::uint32_t tag = fold(hash);
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(tag); slots_[i].id != kVacant;
             i = (i + 1) & mask) {
            if (slots_[i].tag == tag && same(slots_[i].id)) {
                return slots_[i].id;
            }
        }
        return std::nullopt;
    }

    /// The id stored under the key `same` tests for; when there is none,
    /// `id` is stored under it and returned.
    template <typename Same>
    VertexId find_or_insert(std::size_t hash, VertexId id, Same&& same) {
        require(id != kVacant, "VertexTable: vertex id out of range");
        // Grow at a load factor of 3/4, as SimplexSet does.
        if (4 * (size_ + 1) > 3 * slots_.size()) {
            rehash(slots_.empty() ? 8 : 2 * slots_.size());
        }
        const std::uint32_t tag = fold(hash);
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = home(tag);
        for (; slots_[i].id != kVacant; i = (i + 1) & mask) {
            if (slots_[i].tag == tag && same(slots_[i].id)) {
                return slots_[i].id;
            }
        }
        slots_[i] = Slot{id, tag};
        ++size_;
        return id;
    }

    /// Make room for `n` ids without further rehashing.
    void reserve(std::size_t n) {
        std::size_t count = slots_.empty() ? 8 : slots_.size();
        while (4 * n > 3 * count) count *= 2;
        if (count > slots_.size()) rehash(count);
    }

private:
    static constexpr VertexId kVacant = ~VertexId{0};
    struct Slot {
        VertexId id = kVacant;
        std::uint32_t tag = 0;
    };

    static std::uint32_t fold(std::size_t hash) noexcept {
        const auto h = static_cast<std::uint64_t>(hash);
        return static_cast<std::uint32_t>(h ^ (h >> 32));
    }

    // Fibonacci hashing of the stored bits, so a rehash needs no keys.
    std::size_t home(std::uint32_t tag) const noexcept {
        const std::uint64_t h = std::uint64_t{tag} * 0x9e3779b97f4a7c15ULL;
        return static_cast<std::size_t>(
            h >> (64 - std::countr_zero(slots_.size())));
    }

    void rehash(std::size_t slot_count) {
        std::vector<Slot> old(slot_count);
        old.swap(slots_);
        const std::size_t mask = slots_.size() - 1;
        for (const Slot& s : old) {
            if (s.id == kVacant) continue;
            std::size_t i = home(s.tag);
            while (slots_[i].id != kVacant) i = (i + 1) & mask;
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;  // size 0 or a power of two
    std::size_t size_ = 0;
};

/// The hash of a (position, color) vertex key.
inline std::size_t position_key_hash(const BaryPoint& position,
                                     Color color) noexcept {
    std::size_t seed = hash_value(position);
    hash_combine(seed, std::hash<Color>{}(color));
    return seed;
}

}  // namespace gact::topo
