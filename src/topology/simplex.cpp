#include "topology/simplex.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <ostream>

namespace gact::topo {

Simplex Simplex::uninitialized(std::size_t n) {
    Simplex s;
    if (n > kInline) s.heap_ = new VertexId[n];
    s.size_ = static_cast<std::uint32_t>(n);
    return s;
}

void Simplex::truncate(std::size_t n) noexcept {
    if (on_heap() && n <= kInline) {
        VertexId* heap = heap_;
        std::copy_n(heap, n, inline_);
        delete[] heap;
    }
    size_ = static_cast<std::uint32_t>(n);
}

Simplex::Simplex(std::initializer_list<VertexId> vertices)
    : Simplex(std::span<const VertexId>(vertices.begin(), vertices.size())) {}

Simplex::Simplex(std::span<const VertexId> vertices)
    : Simplex(uninitialized(vertices.size())) {
    VertexId* v = data();
    std::copy(vertices.begin(), vertices.end(), v);
    std::sort(v, v + size_);
    truncate(static_cast<std::size_t>(std::unique(v, v + size_) - v));
}

Simplex::Simplex(const Simplex& other) : size_(other.size_) {
    if (on_heap()) {
        heap_ = new VertexId[size_];
        std::copy_n(other.heap_, size_, heap_);
    } else {
        std::memcpy(inline_, other.inline_, sizeof inline_);
    }
}

Simplex::Simplex(Simplex&& other) noexcept : size_(other.size_) {
    std::memcpy(inline_, other.inline_, sizeof inline_);  // or the pointer
    other.size_ = 0;
}

Simplex& Simplex::operator=(const Simplex& other) {
    if (this != &other) *this = Simplex(other);
    return *this;
}

Simplex& Simplex::operator=(Simplex&& other) noexcept {
    if (this != &other) {
        if (on_heap()) delete[] heap_;
        size_ = other.size_;
        std::memcpy(inline_, other.inline_, sizeof inline_);
        other.size_ = 0;
    }
    return *this;
}

bool Simplex::contains(VertexId v) const noexcept {
    const std::span<const VertexId> vs = vertices();
    return std::binary_search(vs.begin(), vs.end(), v);
}

bool Simplex::is_face_of(const Simplex& other) const noexcept {
    return std::ranges::includes(other.vertices(), vertices());
}

Simplex Simplex::union_with(const Simplex& other) const {
    Simplex s = uninitialized(size_ + other.size_);
    const VertexId* end = std::set_union(
        data(), data() + size_, other.data(), other.data() + other.size_,
        s.data());
    s.truncate(static_cast<std::size_t>(end - s.data()));
    return s;
}

Simplex Simplex::intersection_with(const Simplex& other) const {
    Simplex s = uninitialized(std::min(size_, other.size_));
    const VertexId* end = std::set_intersection(
        data(), data() + size_, other.data(), other.data() + other.size_,
        s.data());
    s.truncate(static_cast<std::size_t>(end - s.data()));
    return s;
}

Simplex Simplex::difference(const Simplex& other) const {
    Simplex s = uninitialized(size_);
    const VertexId* end = std::set_difference(
        data(), data() + size_, other.data(), other.data() + other.size_,
        s.data());
    s.truncate(static_cast<std::size_t>(end - s.data()));
    return s;
}

Simplex Simplex::with(VertexId v) const {
    if (contains(v)) return *this;
    Simplex s = uninitialized(size_ + 1);
    const VertexId* first = data();
    const VertexId* pos = std::upper_bound(first, first + size_, v);
    VertexId* out = std::copy(first, pos, s.data());
    *out++ = v;
    std::copy(pos, first + size_, out);
    return s;
}

Simplex Simplex::without(VertexId v) const {
    if (!contains(v)) return *this;
    Simplex s = uninitialized(size_ - 1);
    std::remove_copy(data(), data() + size_, s.data(), v);
    return s;
}

std::vector<Simplex> Simplex::faces() const {
    std::vector<Simplex> out;
    faces_into(out);
    return out;
}

void Simplex::faces_into(std::vector<Simplex>& out) const {
    out.clear();
    const std::size_t n = size_;
    require(n <= 24, "Simplex::faces: simplex too large to enumerate faces");
    const std::size_t total = (std::size_t{1} << n) - 1;
    out.reserve(total);
    const VertexId* v = data();
    for (std::size_t mask = 1; mask <= total; ++mask) {
        Simplex face = uninitialized(
            static_cast<std::size_t>(std::popcount(mask)));
        VertexId* f = face.data();
        for (std::size_t i = 0; i < n; ++i) {
            if (mask & (std::size_t{1} << i)) *f++ = v[i];
        }
        out.push_back(std::move(face));
    }
}

std::vector<Simplex> Simplex::faces_of_dimension(int d) const {
    std::vector<Simplex> out;
    if (d < 0 || d > dimension()) return out;
    // Enumerate (d+1)-subsets with the standard combination walk.
    const std::size_t k = static_cast<std::size_t>(d) + 1;
    const std::size_t n = size_;
    std::vector<std::size_t> idx(k);
    for (std::size_t i = 0; i < k; ++i) idx[i] = i;
    while (true) {
        Simplex face = uninitialized(k);
        for (std::size_t i = 0; i < k; ++i) face.data()[i] = data()[idx[i]];
        out.push_back(std::move(face));
        // Advance the combination.
        std::size_t i = k;
        while (i > 0 && idx[i - 1] == n - k + i - 1) --i;
        if (i == 0) break;
        ++idx[i - 1];
        for (std::size_t j = i; j < k; ++j) idx[j] = idx[j - 1] + 1;
    }
    return out;
}

std::vector<Simplex> Simplex::boundary_faces() const {
    std::vector<Simplex> out;
    out.reserve(size_);
    const VertexId* v = data();
    for (std::size_t i = 0; i < size_; ++i) {
        Simplex face = uninitialized(size_ - 1);
        std::copy(v + i + 1, v + size_, std::copy(v, v + i, face.data()));
        out.push_back(std::move(face));
    }
    return out;
}

std::string Simplex::to_string() const {
    std::string out = "[";
    for (std::size_t i = 0; i < size_; ++i) {
        if (i > 0) out += " ";
        out += std::to_string(data()[i]);
    }
    out += "]";
    return out;
}

std::ostream& operator<<(std::ostream& os, const Simplex& s) {
    return os << s.to_string();
}

}  // namespace gact::topo
