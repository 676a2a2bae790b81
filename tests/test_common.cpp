// Unit tests for src/common: byte codecs, rng, crc32c, histogram,
// interval_set, small_bytes and the unit types.
#include "common/bytes.hpp"
#include "common/crc32c.hpp"
#include "common/histogram.hpp"
#include "common/interval_set.hpp"
#include "common/rng.hpp"
#include "common/small_bytes.hpp"
#include "common/units.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <map>
#include <utility>

using namespace mmtp;
using namespace mmtp::literals;

// ---------------------------------------------------------------- bytes

TEST(bytes, round_trip_all_widths)
{
    byte_writer w;
    w.u8(0xab);
    w.u16(0x1234);
    w.u24(0xabcdef);
    w.u32(0xdeadbeef);
    w.u48(0x0000123456789abcull);
    w.u64(0x1122334455667788ull);

    byte_reader r(w.view());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u24(), 0xabcdefu);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u48(), 0x123456789abcull);
    EXPECT_EQ(r.u64(), 0x1122334455667788ull);
    EXPECT_FALSE(r.failed());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(bytes, u24_masks_high_bits)
{
    byte_writer w;
    w.u24(0xff123456);
    byte_reader r(w.view());
    EXPECT_EQ(r.u24(), 0x123456u);
}

TEST(bytes, reader_overrun_is_sticky_and_returns_zero)
{
    const std::uint8_t data[2] = {0xff, 0xff};
    byte_reader r(std::span<const std::uint8_t>(data, 2));
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_TRUE(r.failed());
    // subsequent reads also fail, even ones that would fit
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_TRUE(r.failed());
}

TEST(bytes, bytes_view_and_skip)
{
    byte_writer w;
    const std::uint8_t src[4] = {1, 2, 3, 4};
    w.bytes(src);
    w.zeros(2);
    byte_reader r(w.view());
    auto v = r.bytes(3);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[2], 3);
    r.skip(3);
    EXPECT_FALSE(r.failed());
    r.skip(1);
    EXPECT_TRUE(r.failed());
}

TEST(bytes, patch_u16)
{
    byte_writer w;
    w.u16(0);
    w.u8(7);
    w.patch_u16(0, 0xbeef);
    byte_reader r(w.view());
    EXPECT_EQ(r.u16(), 0xbeef);
}

// ------------------------------------------------------------------ rng

TEST(rng, deterministic_for_same_seed)
{
    rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(rng, different_seeds_diverge)
{
    rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next()) same++;
    EXPECT_LT(same, 2);
}

TEST(rng, uniform_in_unit_interval)
{
    rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(rng, uniform_int_bounds_inclusive)
{
    rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.uniform_int(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo |= v == 5;
        saw_hi |= v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(rng, chance_extremes)
{
    rng r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(rng, chance_mid_probability_reasonable)
{
    rng r(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        if (r.chance(0.3)) hits++;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(rng, exponential_mean)
{
    rng r(17);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(rng, normal_moments)
{
    rng r(19);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = r.normal(10.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(rng, fork_is_independent)
{
    rng a(21);
    rng b = a.fork();
    // forked stream should not mirror the parent
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next()) same++;
    EXPECT_LT(same, 2);
}

// --------------------------------------------------------------- crc32c

TEST(crc32c, known_vector_rfc3720)
{
    // CRC-32C of 32 zero bytes = 0x8a9136aa (RFC 3720 test vector)
    std::vector<std::uint8_t> zeros(32, 0);
    EXPECT_EQ(crc32c(zeros), 0x8a9136aau);
}

TEST(crc32c, known_vector_ones)
{
    std::vector<std::uint8_t> ones(32, 0xff);
    EXPECT_EQ(crc32c(ones), 0x62a8ab43u);
}

TEST(crc32c, incremental_matches_oneshot)
{
    std::vector<std::uint8_t> data;
    rng r(23);
    for (int i = 0; i < 300; ++i) data.push_back(static_cast<std::uint8_t>(r.next()));

    auto state = crc32c_init();
    state = crc32c_update(state, std::span<const std::uint8_t>(data).first(100));
    state = crc32c_update(state, std::span<const std::uint8_t>(data).subspan(100));
    EXPECT_EQ(crc32c_finish(state), crc32c(data));
}

TEST(crc32c, detects_single_bit_flip)
{
    std::vector<std::uint8_t> data(64, 0x5a);
    const auto before = crc32c(data);
    data[20] ^= 0x01;
    EXPECT_NE(crc32c(data), before);
}

// ------------------------------------------------------------ histogram

TEST(histogram, empty)
{
    histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(histogram, exact_small_values)
{
    histogram h;
    for (std::uint64_t v = 0; v < 64; ++v) h.record(v);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 63u);
    EXPECT_EQ(h.percentile(0), 0u);
    EXPECT_EQ(h.percentile(100), 63u);
    EXPECT_NEAR(h.mean(), 31.5, 0.001);
}

TEST(histogram, percentile_bounded_relative_error)
{
    histogram h;
    rng r(29);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.uniform_int(1, 1000000);
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());
    for (double p : {10.0, 50.0, 90.0, 99.0}) {
        const auto exact = values[static_cast<std::size_t>(p / 100.0 * (values.size() - 1))];
        const auto approx = h.percentile(p);
        EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                    static_cast<double>(exact) * 0.05 + 2.0)
            << "p=" << p;
    }
}

TEST(histogram, merge)
{
    histogram a, b;
    a.record(10);
    b.record(1000);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 10u);
    EXPECT_EQ(a.max(), 1000u);
}

TEST(histogram, reset)
{
    histogram h;
    h.record(42);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

// Regression: percentile() must clamp estimates into [min, max] — the
// bucket midpoint of a lone large sample can otherwise exceed the
// largest value ever recorded (log buckets are wide at the top).
TEST(histogram, percentile_clamped_to_observed_range)
{
    histogram h;
    h.record(1000000); // one sample, bucket midpoint != value
    for (double p : {0.0, 50.0, 99.9, 100.0}) {
        EXPECT_EQ(h.percentile(p), 1000000u) << "p=" << p;
    }

    histogram pair;
    pair.record(100);
    pair.record(1048575); // top of a wide bucket
    EXPECT_GE(pair.percentile(99), 100u);
    EXPECT_LE(pair.percentile(99), 1048575u);
    EXPECT_GE(pair.percentile(1), 100u);
}

// Regression: p outside [0, 100] — including NaN, which fails every
// comparison — must behave like the nearest valid percentile instead of
// indexing out of range or invoking UB in the float → int cast.
TEST(histogram, percentile_out_of_range_p)
{
    histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
    EXPECT_EQ(h.percentile(-5.0), h.percentile(0.0));
    EXPECT_EQ(h.percentile(250.0), h.percentile(100.0));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(h.percentile(nan), h.percentile(0.0));
}

// --------------------------------------------------------- interval_set

TEST(interval_set, insert_and_contains)
{
    interval_set s;
    s.insert(10, 20);
    EXPECT_TRUE(s.contains(10));
    EXPECT_TRUE(s.contains(19));
    EXPECT_FALSE(s.contains(20));
    EXPECT_FALSE(s.contains(9));
}

TEST(interval_set, merging_adjacent_and_overlapping)
{
    interval_set s;
    s.insert(0, 10);
    s.insert(10, 20); // touching: must merge
    EXPECT_EQ(s.interval_count(), 1u);
    s.insert(15, 30); // overlapping
    EXPECT_EQ(s.interval_count(), 1u);
    EXPECT_EQ(s.next_missing(0), 30u);
    s.insert(40, 50);
    EXPECT_EQ(s.interval_count(), 2u);
    s.insert(25, 45); // bridges the gap
    EXPECT_EQ(s.interval_count(), 1u);
    EXPECT_EQ(s.next_missing(0), 50u);
}

TEST(interval_set, erase_splits)
{
    interval_set s;
    s.insert(0, 100);
    s.erase(40, 60);
    EXPECT_EQ(s.interval_count(), 2u);
    EXPECT_EQ(s.next_missing(0), 40u);
    EXPECT_FALSE(s.contains(40));
    EXPECT_FALSE(s.contains(59));
    EXPECT_EQ(s.next_missing(60), 100u);
    EXPECT_EQ(s.covered(), 80u);
}

TEST(interval_set, next_missing)
{
    interval_set s;
    EXPECT_EQ(s.next_missing(5), 5u);
    s.insert(5, 10);
    EXPECT_EQ(s.next_missing(5), 10u);
    EXPECT_EQ(s.next_missing(7), 10u);
    EXPECT_EQ(s.next_missing(10), 10u);
    s.insert(10, 12);
    EXPECT_EQ(s.next_missing(5), 12u);
}

TEST(interval_set, gaps)
{
    interval_set s;
    s.insert(10, 20);
    s.insert(30, 40);
    const auto g = s.gaps(0, 50);
    ASSERT_EQ(g.size(), 3u);
    EXPECT_EQ(g[0].first, 0u);
    EXPECT_EQ(g[0].second, 10u);
    EXPECT_EQ(g[1].first, 20u);
    EXPECT_EQ(g[1].second, 30u);
    EXPECT_EQ(g[2].first, 40u);
    EXPECT_EQ(g[2].second, 50u);
}

TEST(interval_set, gaps_none_when_covered)
{
    interval_set s;
    s.insert(0, 100);
    EXPECT_TRUE(s.gaps(0, 100).empty());
    EXPECT_TRUE(s.gaps(20, 30).empty());
}

// Property test: random inserts/erases tracked against a reference bitmap.
TEST(interval_set, random_ops_match_reference_bitmap)
{
    constexpr std::uint64_t universe = 512;
    interval_set s;
    std::vector<bool> ref(universe, false);
    rng r(31);
    for (int op = 0; op < 2000; ++op) {
        const auto a = r.uniform_int(0, universe - 1);
        const auto b = r.uniform_int(0, universe);
        const auto lo = a < b ? a : b;
        const auto hi = a < b ? b : a;
        if (r.chance(0.6)) {
            s.insert(lo, hi);
            for (auto i = lo; i < hi; ++i) ref[i] = true;
        } else {
            s.erase(lo, hi);
            for (auto i = lo; i < hi; ++i) ref[i] = false;
        }
    }
    std::uint64_t ref_covered = 0;
    for (std::uint64_t i = 0; i < universe; ++i) {
        EXPECT_EQ(s.contains(i), static_cast<bool>(ref[i])) << "at " << i;
        if (ref[i]) ref_covered++;
    }
    EXPECT_EQ(s.covered(), ref_covered);
    // next_missing agrees with the reference
    for (std::uint64_t i = 0; i < universe; ++i) {
        std::uint64_t expect = i;
        while (expect < universe && ref[expect]) expect++;
        EXPECT_EQ(s.next_missing(i), expect) << "from " << i;
    }
}

namespace {

/// The std::map-backed interval set the flat run vector replaced, kept
/// verbatim as the differential reference.
class map_interval_set {
public:
    void insert(std::uint64_t start, std::uint64_t end)
    {
        if (start >= end) return;
        auto it = m_.upper_bound(start);
        if (it != m_.begin()) {
            auto prev = std::prev(it);
            if (prev->second >= start) {
                start = prev->first;
                if (prev->second > end) end = prev->second;
                it = m_.erase(prev);
            }
        }
        while (it != m_.end() && it->first <= end) {
            if (it->second > end) end = it->second;
            it = m_.erase(it);
        }
        m_[start] = end;
    }

    void erase(std::uint64_t start, std::uint64_t end)
    {
        if (start >= end) return;
        auto it = m_.lower_bound(start);
        if (it != m_.begin()) {
            auto prev = std::prev(it);
            if (prev->second > start) it = prev;
        }
        while (it != m_.end() && it->first < end) {
            const auto s = it->first;
            const auto e = it->second;
            it = m_.erase(it);
            if (s < start) m_[s] = start;
            if (e > end) {
                m_[end] = e;
                break;
            }
        }
    }

    bool contains(std::uint64_t v) const
    {
        auto it = m_.upper_bound(v);
        return it != m_.begin() && std::prev(it)->second > v;
    }

    std::uint64_t next_missing(std::uint64_t from) const
    {
        auto it = m_.upper_bound(from);
        if (it == m_.begin()) return from;
        auto prev = std::prev(it);
        return prev->second > from ? prev->second : from;
    }

    std::vector<std::pair<std::uint64_t, std::uint64_t>> gaps(std::uint64_t start,
                                                              std::uint64_t end) const
    {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        if (start >= end) return out;
        std::uint64_t cursor = start;
        for (const auto& [s, e] : m_) {
            if (e <= cursor) continue;
            if (s >= end) break;
            if (s > cursor) out.push_back({cursor, s < end ? s : end});
            if (e > cursor) cursor = e;
            if (cursor >= end) break;
        }
        if (cursor < end) out.push_back({cursor, end});
        return out;
    }

    std::vector<std::pair<std::uint64_t, std::uint64_t>> runs() const
    {
        return {m_.begin(), m_.end()};
    }

private:
    std::map<std::uint64_t, std::uint64_t> m_;
};

} // namespace

// Differential test: every query agrees with the map-backed reference
// after every operation. Inserts lean in-order (the receiver's common
// case: extend the run on the right), the rest are random.
TEST(interval_set, random_ops_match_map_reference)
{
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        interval_set s;
        map_interval_set ref;
        rng r(seed);
        std::uint64_t cursor = 0;
        for (int op = 0; op < 3000; ++op) {
            std::uint64_t lo = r.uniform_int(0, 600);
            std::uint64_t hi = lo + r.uniform_int(0, 40);
            const double pick = r.uniform();
            if (pick < 0.35) {
                lo = cursor;
                hi = cursor + r.uniform_int(1, 3);
                cursor = hi + (r.chance(0.2) ? r.uniform_int(1, 8) : 0);
                if (cursor > 600) cursor = 0;
                s.insert(lo, hi);
                ref.insert(lo, hi);
            } else if (pick < 0.75) {
                s.insert(lo, hi);
                ref.insert(lo, hi);
            } else if (pick < 0.97) {
                s.erase(lo, hi);
                ref.erase(lo, hi);
            } else {
                s.clear();
                ref = map_interval_set{};
            }
            std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
            for (const auto& [a, b] : s.intervals()) got.emplace_back(a, b);
            ASSERT_EQ(got, ref.runs()) << "seed " << seed << " op " << op;
            const auto q = r.uniform_int(0, 650);
            const auto q2 = q + r.uniform_int(0, 50);
            ASSERT_EQ(s.contains(q), ref.contains(q));
            ASSERT_EQ(s.next_missing(q), ref.next_missing(q));
            ASSERT_EQ(s.gaps(q, q2), ref.gaps(q, q2));
            ASSERT_EQ(s.empty(), got.empty());
            ASSERT_EQ(s.interval_count(), got.size());
        }
    }
}

// ----------------------------------------------------------- small_bytes

// Differential test against std::vector<uint8_t>: seeded random
// assign / append / insert / resize / push_back / clear / copy / move
// sequences over 0..200-byte buffers, so sizes cross the inline/heap
// boundary in both directions, including copies and moves between an
// inline and a spilled buffer.
TEST(small_bytes, random_ops_match_vector)
{
    constexpr std::size_t max_len = 200;
    constexpr std::size_t slots = 4;
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
        rng r(seed);
        std::array<small_bytes, slots> sb;
        std::array<std::vector<std::uint8_t>, slots> ref;
        std::uint8_t next_byte = 0;
        const auto fresh = [&](std::size_t n) {
            std::vector<std::uint8_t> v(n);
            for (auto& b : v) b = next_byte++;
            return v;
        };
        bool saw_inline = false;
        bool saw_spilled = false;
        for (int op = 0; op < 4000; ++op) {
            const auto i = static_cast<std::size_t>(r.uniform_int(0, slots - 1));
            const auto j = static_cast<std::size_t>(r.uniform_int(0, slots - 1));
            auto& s = sb[i];
            auto& v = ref[i];
            switch (r.uniform_int(0, 11)) {
            case 0: { // assign from a vector
                const auto src = fresh(r.uniform_int(0, max_len));
                s = src;
                v = src;
                break;
            }
            case 1: { // assign from a span
                const auto src = fresh(r.uniform_int(0, max_len));
                s = std::span<const std::uint8_t>(src);
                v = src;
                break;
            }
            case 2: { // append
                const auto src = fresh(r.uniform_int(0, max_len - v.size()));
                s.append(src);
                v.insert(v.end(), src.begin(), src.end());
                break;
            }
            case 3: { // insert at a random position
                const auto src = fresh(r.uniform_int(0, max_len - v.size()));
                const auto at = r.uniform_int(0, v.size());
                const auto it = s.insert(s.begin() + at, src.begin(), src.end());
                ASSERT_EQ(it, s.data() + at);
                v.insert(v.begin() + static_cast<std::ptrdiff_t>(at), src.begin(), src.end());
                break;
            }
            case 4: { // resize (grow zero-fills, shrink truncates)
                const auto n = r.uniform_int(0, max_len);
                s.resize(n);
                v.resize(n);
                break;
            }
            case 5:
                if (v.size() < max_len) {
                    s.push_back(next_byte);
                    v.push_back(next_byte++);
                }
                break;
            case 6:
                s.clear();
                v.clear();
                break;
            case 7: // copy-assign between slots
                sb[j] = sb[i];
                ref[j] = ref[i];
                break;
            case 8: { // copy-construct
                small_bytes c(sb[i]);
                ASSERT_TRUE(c == ref[i]);
                sb[j] = c;
                ref[j] = ref[i];
                break;
            }
            case 9: // move-assign between slots
                if (i != j) {
                    sb[j] = std::move(sb[i]);
                    ref[j] = std::move(ref[i]);
                    ASSERT_TRUE(sb[i].empty());
                    ref[i].clear();
                }
                break;
            case 10: { // move-construct, then move back
                small_bytes m(std::move(sb[i]));
                ASSERT_TRUE(sb[i].empty());
                ASSERT_TRUE(m == ref[i]);
                sb[i] = std::move(m);
                break;
            }
            default: { // reserve, then keep appending
                const auto n = r.uniform_int(0, max_len);
                s.reserve(n);
                ASSERT_GE(s.capacity(), n);
                break;
            }
            }
            for (std::size_t k = 0; k < slots; ++k) {
                ASSERT_EQ(sb[k].size(), ref[k].size()) << "seed " << seed << " op " << op;
                ASSERT_TRUE(sb[k] == ref[k]) << "seed " << seed << " op " << op;
                ASSERT_GE(sb[k].capacity(), sb[k].size());
                ASSERT_EQ(sb[k].empty(), ref[k].empty());
                ASSERT_EQ(std::vector<std::uint8_t>(sb[k].begin(), sb[k].end()), ref[k]);
                if (sb[k].size() > small_bytes::inline_capacity) {
                    ASSERT_FALSE(sb[k].is_inline());
                }
                (sb[k].is_inline() ? saw_inline : saw_spilled) = true;
            }
        }
        EXPECT_TRUE(saw_inline);
        EXPECT_TRUE(saw_spilled);
    }
}

// ---------------------------------------------------------------- units

TEST(units, transmission_time)
{
    const auto rate = data_rate::from_gbps(100);
    // 1250 bytes = 10000 bits at 100 Gbps = 100 ns
    EXPECT_EQ(rate.transmission_time(1250).ns, 100);
}

TEST(units, transmission_time_zero_rate_is_huge)
{
    const data_rate rate{0};
    EXPECT_GT(rate.transmission_time(1).ns, 1'000'000'000'000ll);
}

TEST(units, literals)
{
    EXPECT_EQ((5_ms).ns, 5'000'000);
    EXPECT_EQ((2_s).ns, 2'000'000'000);
    EXPECT_EQ((10_gbps).bits_per_sec, 10'000'000'000ull);
    EXPECT_EQ(1_mib, 1024ull * 1024);
}

TEST(units, time_arithmetic)
{
    const sim_time t{1000};
    const auto t2 = t + 5_us;
    EXPECT_EQ(t2.ns, 6000);
    EXPECT_EQ((t2 - t).ns, 5000);
    EXPECT_TRUE(sim_time::never().is_never());
    EXPECT_LT(t, t2);
}
