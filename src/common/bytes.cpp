#include "common/bytes.hpp"

#include <array>

namespace mmtp {

namespace {

/// Big-endian bytes of the low `N` bytes of `v`.
template <std::size_t N>
std::array<std::uint8_t, N> big_endian(std::uint64_t v)
{
    std::array<std::uint8_t, N> b{};
    for (std::size_t i = 0; i < N; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * (N - 1 - i)));
    return b;
}

} // namespace

void byte_writer::u16(std::uint16_t v)
{
    put(big_endian<2>(v).data(), 2);
}

void byte_writer::u24(std::uint32_t v)
{
    put(big_endian<3>(v).data(), 3);
}

void byte_writer::u32(std::uint32_t v)
{
    put(big_endian<4>(v).data(), 4);
}

void byte_writer::u48(std::uint64_t v)
{
    put(big_endian<6>(v).data(), 6);
}

void byte_writer::u64(std::uint64_t v)
{
    put(big_endian<8>(v).data(), 8);
}

void byte_writer::bytes(std::span<const std::uint8_t> src)
{
    put(src.data(), src.size());
}

void byte_writer::zeros(std::size_t n)
{
    if (small_) {
        small_->resize(small_->size() + n);
    } else {
        auto& v = vec();
        v.insert(v.end(), n, 0);
    }
}

void byte_writer::patch_u16(std::size_t offset, std::uint16_t v)
{
    if (offset + 2 > size()) return;
    std::uint8_t* d = small_ ? small_->data() : vec().data();
    d[offset] = static_cast<std::uint8_t>(v >> 8);
    d[offset + 1] = static_cast<std::uint8_t>(v);
}

bool byte_reader::ensure(std::size_t n)
{
    if (failed_ || pos_ + n > data_.size()) {
        failed_ = true;
        return false;
    }
    return true;
}

std::uint8_t byte_reader::u8()
{
    if (!ensure(1)) return 0;
    return data_[pos_++];
}

std::uint16_t byte_reader::u16()
{
    if (!ensure(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
}

std::uint32_t byte_reader::u24()
{
    if (!ensure(3)) return 0;
    std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 16)
        | (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8)
        | data_[pos_ + 2];
    pos_ += 3;
    return v;
}

std::uint32_t byte_reader::u32()
{
    if (!ensure(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return v;
}

std::uint64_t byte_reader::u48()
{
    if (!ensure(6)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 6; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 6;
    return v;
}

std::uint64_t byte_reader::u64()
{
    if (!ensure(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 8;
    return v;
}

std::span<const std::uint8_t> byte_reader::bytes(std::size_t n)
{
    if (!ensure(n)) return {};
    auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
}

void byte_reader::skip(std::size_t n)
{
    if (!ensure(n)) return;
    pos_ += n;
}

} // namespace mmtp
