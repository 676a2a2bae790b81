// bytes.hpp — bounds-checked big-endian (network order) byte codecs.
//
// All wire formats in this library serialize through byte_writer and parse
// through byte_reader. Readers never throw: out-of-bounds reads set a
// sticky failure flag that callers check once at the end of a parse.
#pragma once

#include "common/small_bytes.hpp"

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

namespace mmtp {

/// Appends big-endian integers to a growable byte buffer — its own
/// vector, or a caller's small_bytes or vector (packet headers and
/// archive chunks are built in place that way, with no temporary buffer
/// and no copy).
class byte_writer {
public:
    byte_writer() = default;
    explicit byte_writer(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }
    /// Append to `out` (after its current bytes) instead of an owned
    /// vector; take() must not be called on such a writer.
    explicit byte_writer(small_bytes& out) : small_(&out) {}
    explicit byte_writer(std::vector<std::uint8_t>& out) : vec_(&out) {}

    void u8(std::uint8_t v)
    {
        if (small_)
            small_->push_back(v);
        else
            vec().push_back(v);
    }
    void u16(std::uint16_t v);
    void u24(std::uint32_t v); // low 24 bits
    void u32(std::uint32_t v);
    void u48(std::uint64_t v); // low 48 bits
    void u64(std::uint64_t v);
    void bytes(std::span<const std::uint8_t> src);
    /// Appends `n` zero bytes (padding).
    void zeros(std::size_t n);

    std::size_t size() const { return small_ ? small_->size() : vec().size(); }
    std::span<const std::uint8_t> view() const
    {
        return small_ ? small_->view() : std::span<const std::uint8_t>(vec());
    }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

    /// Overwrites a previously written big-endian u16 at `offset`
    /// (used for length fields back-patched after the payload is known).
    void patch_u16(std::size_t offset, std::uint16_t v);

private:
    std::vector<std::uint8_t>& vec() { return vec_ ? *vec_ : buf_; }
    const std::vector<std::uint8_t>& vec() const { return vec_ ? *vec_ : buf_; }

    void put(const std::uint8_t* src, std::size_t n)
    {
        if (small_) {
            small_->append(src, n);
        } else {
            auto& v = vec();
            v.insert(v.end(), src, src + n);
        }
    }

    std::vector<std::uint8_t> buf_;
    // At most one is set: the caller's buffer this writer appends to.
    small_bytes* small_{nullptr};
    std::vector<std::uint8_t>* vec_{nullptr};
};

/// Reads big-endian integers out of a fixed byte span.
/// Any out-of-bounds read sets failed() and returns 0.
class byte_reader {
public:
    explicit byte_reader(std::span<const std::uint8_t> data) : data_(data) {}

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u24();
    std::uint32_t u32();
    std::uint64_t u48();
    std::uint64_t u64();
    /// Returns a view of the next `n` bytes and advances; empty view on failure.
    std::span<const std::uint8_t> bytes(std::size_t n);
    void skip(std::size_t n);

    std::size_t remaining() const { return data_.size() - pos_; }
    std::size_t position() const { return pos_; }
    bool failed() const { return failed_; }

private:
    bool ensure(std::size_t n);

    std::span<const std::uint8_t> data_;
    std::size_t pos_{0};
    bool failed_{false};
};

} // namespace mmtp
