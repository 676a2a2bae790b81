// small_bytes.hpp — byte buffer with inline small-buffer storage.
//
// Serialized protocol headers in this library are short — the largest
// stack the wire layer builds, Ethernet + IPv4 + an MMTP header with
// every feature active, is 14 + 20 + 47 = 81 bytes — yet the simulator
// used to keep them in std::vector: one heap allocation per packet plus
// a pointer chase on every parse. small_bytes stores up to
// `inline_capacity` bytes directly inside the object (so a packet's
// header bytes travel with the packet through queues and event closures
// without touching the heap) and spills to the heap only for oversized
// buffers. The heap pointer and capacity share storage with the inline
// bytes, and the top bit of the size word marks which mode is in use,
// so the object stays 88 bytes (netsim::packet stays 160). The API is
// the subset of std::vector<uint8_t> the codebase uses; it converts
// implicitly to std::span via the ranges constructor.
#pragma once

#include <cstdint>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <span>
#include <stdexcept>
#include <vector>

namespace mmtp {

class small_bytes {
public:
    /// Largest buffer stored without allocating. Covers every header
    /// stack the wire layer builds (pinned against wire::max_header_size
    /// in wire/build.hpp).
    static constexpr std::size_t inline_capacity = 84;
    /// Largest size the tagged size word can hold.
    static constexpr std::size_t max_size = 0x7fffffffu;

    small_bytes() noexcept : size_(0) {}

    small_bytes(const small_bytes& o) : small_bytes() { assign(o.data(), o.size()); }

    small_bytes(small_bytes&& o) noexcept : small_bytes() { steal(o); }

    small_bytes(std::span<const std::uint8_t> src) : small_bytes()
    {
        assign(src.data(), src.size());
    }

    small_bytes(const std::vector<std::uint8_t>& v) : small_bytes()
    {
        assign(v.data(), v.size());
    }

    small_bytes(std::initializer_list<std::uint8_t> il) : small_bytes()
    {
        assign(il.begin(), il.size());
    }

    ~small_bytes() { release(); }

    small_bytes& operator=(const small_bytes& o)
    {
        if (this != &o) assign(o.data(), o.size());
        return *this;
    }

    small_bytes& operator=(small_bytes&& o) noexcept
    {
        if (this != &o) {
            release();
            size_ = 0;
            steal(o);
        }
        return *this;
    }

    small_bytes& operator=(const std::vector<std::uint8_t>& v)
    {
        assign(v.data(), v.size());
        return *this;
    }

    small_bytes& operator=(std::span<const std::uint8_t> s)
    {
        assign(s.data(), s.size());
        return *this;
    }

    std::uint8_t* data() noexcept { return spilled() ? heap_ptr() : buf_; }
    const std::uint8_t* data() const noexcept { return spilled() ? heap_ptr() : buf_; }
    std::size_t size() const noexcept { return size_ & ~heap_bit; }
    std::size_t capacity() const noexcept { return spilled() ? heap_cap() : inline_capacity; }
    bool empty() const noexcept { return size() == 0; }
    bool is_inline() const noexcept { return !spilled(); }

    std::uint8_t* begin() noexcept { return data(); }
    std::uint8_t* end() noexcept { return data() + size(); }
    const std::uint8_t* begin() const noexcept { return data(); }
    const std::uint8_t* end() const noexcept { return data() + size(); }

    std::uint8_t& operator[](std::size_t i) noexcept { return data()[i]; }
    std::uint8_t operator[](std::size_t i) const noexcept { return data()[i]; }

    void clear() noexcept { size_ &= heap_bit; }

    void reserve(std::size_t n)
    {
        if (n > capacity()) grow(n);
    }

    /// Grows zero-filled; shrinking keeps the buffer.
    void resize(std::size_t n)
    {
        if (n > capacity()) grow(n);
        const std::size_t old = size();
        if (n > old) std::memset(data() + old, 0, n - old);
        set_size(n);
    }

    void push_back(std::uint8_t b)
    {
        const std::size_t n = size();
        if (n == capacity()) grow(n + 1);
        data()[n] = b;
        set_size(n + 1);
    }

    /// Appends `n` bytes; `src` must not alias this buffer.
    void append(const std::uint8_t* src, std::size_t n)
    {
        const std::size_t old = size();
        if (old + n > capacity()) grow(old + n);
        if (n != 0) std::memcpy(data() + old, src, n);
        set_size(old + n);
    }

    void append(std::span<const std::uint8_t> src) { append(src.data(), src.size()); }

    /// std::vector-style range insert (the sources must not alias this
    /// buffer). Returns the iterator to the first inserted byte.
    template <typename It>
    std::uint8_t* insert(const std::uint8_t* pos, It first, It last)
    {
        const std::size_t at = static_cast<std::size_t>(pos - data());
        const std::size_t n = static_cast<std::size_t>(std::distance(first, last));
        const std::size_t old = size();
        if (old + n > capacity()) grow(old + n);
        std::uint8_t* out = data() + at;
        std::memmove(out + n, out, old - at);
        for (std::uint8_t* d = out; first != last; ++first, ++d)
            *d = static_cast<std::uint8_t>(*first);
        set_size(old + n);
        return out;
    }

    std::span<const std::uint8_t> view() const noexcept { return {data(), size()}; }

    friend bool operator==(const small_bytes& a, const small_bytes& b) noexcept
    {
        return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
    }

    friend bool operator==(const small_bytes& a, const std::vector<std::uint8_t>& b) noexcept
    {
        // An empty vector's data() may be null, which memcmp must not see.
        return a.size() == b.size()
               && (b.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
    }

    friend bool operator==(const std::vector<std::uint8_t>& a, const small_bytes& b) noexcept
    {
        return b == a;
    }

private:
    /// Set in size_ while the bytes live on the heap; buf_ then holds the
    /// heap pointer (bytes 0..8) and the capacity (bytes 8..12).
    static constexpr std::uint32_t heap_bit = 0x80000000u;

    bool spilled() const noexcept { return (size_ & heap_bit) != 0; }

    std::uint8_t* heap_ptr() const noexcept
    {
        std::uint8_t* p;
        std::memcpy(&p, buf_, sizeof p);
        return p;
    }

    std::size_t heap_cap() const noexcept
    {
        std::uint32_t c;
        std::memcpy(&c, buf_ + sizeof(std::uint8_t*), sizeof c);
        return c;
    }

    void set_size(std::size_t n) noexcept
    {
        size_ = (size_ & heap_bit) | static_cast<std::uint32_t>(n);
    }

    void release() noexcept
    {
        if (spilled()) delete[] heap_ptr();
    }

    void assign(const std::uint8_t* src, std::size_t n)
    {
        if (n > capacity()) grow_discard(n);
        if (n != 0) std::memcpy(data(), src, n);
        set_size(n);
    }

    /// Takes o's bytes (or its heap block) and leaves o inline and empty.
    /// This object must hold no heap block.
    void steal(small_bytes& o) noexcept
    {
        std::memcpy(buf_, o.buf_, spilled_bytes(o));
        size_ = o.size_;
        o.size_ = 0;
    }

    /// How much of o.buf_ is meaningful: the heap handle, or the bytes.
    static std::size_t spilled_bytes(const small_bytes& o) noexcept
    {
        return o.spilled() ? sizeof(std::uint8_t*) + sizeof(std::uint32_t) : o.size();
    }

    void grow(std::size_t need) { reallocate(need, true); }
    void grow_discard(std::size_t need) { reallocate(need, false); }

    void reallocate(std::size_t need, bool keep)
    {
        if (need > max_size) throw std::length_error("small_bytes: size exceeds max_size");
        std::size_t cap = capacity() * 2;
        if (cap < need) cap = need;
        if (cap > max_size) cap = max_size;
        auto* nd = new std::uint8_t[cap];
        const std::size_t n = size();
        if (keep && n != 0) std::memcpy(nd, data(), n);
        release();
        std::memcpy(buf_, &nd, sizeof nd);
        const auto c = static_cast<std::uint32_t>(cap);
        std::memcpy(buf_ + sizeof nd, &c, sizeof c);
        size_ = heap_bit | static_cast<std::uint32_t>(n);
    }

    alignas(8) std::uint8_t buf_[inline_capacity];
    std::uint32_t size_; // byte count; heap_bit set while spilled
};

static_assert(sizeof(small_bytes) == 88, "small_bytes must stay 88 bytes (packet is 160)");

} // namespace mmtp
