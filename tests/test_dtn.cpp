// Unit tests for the DTN retransmission buffer, plus a randomized
// differential test against the std::map + FIFO store it replaced.
#include "common/rng.hpp"
#include "dtn/buffer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <map>
#include <new>

using namespace mmtp;
using namespace mmtp::dtn;
using namespace mmtp::literals;

// Bytes requested through global operator new, for the sequence-jump
// test: a store must not size anything by the gap it skips.
static std::atomic<std::uint64_t> g_new_bytes{0};

void* operator new(std::size_t n)
{
    g_new_bytes.fetch_add(n, std::memory_order_relaxed);
    if (void* p = std::malloc(n)) return p;
    throw std::bad_alloc();
}

// GCC pairs the replaced operator new with free() below and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

buffered_datagram make_entry(std::uint64_t seq, std::uint32_t size = 1000,
                             wire::experiment_id exp = 42, std::uint16_t epoch = 0)
{
    buffered_datagram d;
    d.sequence = seq;
    d.epoch = epoch;
    d.experiment = exp;
    d.size_bytes = size;
    d.timestamp_ns = seq * 100;
    return d;
}

} // namespace

TEST(buffer, store_fetch_hit_and_miss)
{
    retransmission_buffer buf;
    buf.store(make_entry(5), sim_time{0});
    const auto hit = buf.fetch(42, 0, 5, sim_time{0});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->sequence, 5u);
    EXPECT_EQ(hit->timestamp_ns, 500u);
    EXPECT_FALSE(buf.fetch(42, 0, 6, sim_time{0}).has_value());
    EXPECT_FALSE(buf.fetch(43, 0, 5, sim_time{0}).has_value());
    EXPECT_FALSE(buf.fetch(42, 1, 5, sim_time{0}).has_value());
    EXPECT_EQ(buf.stats().hits, 1u);
    EXPECT_EQ(buf.stats().misses, 3u);
}

TEST(buffer, fetch_range_returns_contiguous_present)
{
    retransmission_buffer buf;
    for (std::uint64_t s : {1, 2, 3, 5, 6}) buf.store(make_entry(s), sim_time{0});
    const auto got = buf.fetch_range(42, 0, 2, 5, sim_time{0});
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].sequence, 2u);
    EXPECT_EQ(got[1].sequence, 3u);
    EXPECT_EQ(got[2].sequence, 5u);
}

TEST(buffer, capacity_eviction_oldest_first)
{
    buffer_config cfg;
    cfg.capacity_bytes = 2500;
    retransmission_buffer buf(cfg);
    buf.store(make_entry(1), sim_time{0});
    buf.store(make_entry(2), sim_time{0});
    buf.store(make_entry(3), sim_time{0}); // 3000 bytes: evict seq 1
    EXPECT_EQ(buf.entries(), 2u);
    EXPECT_FALSE(buf.fetch(42, 0, 1, sim_time{0}).has_value());
    EXPECT_TRUE(buf.fetch(42, 0, 3, sim_time{0}).has_value());
    EXPECT_EQ(buf.stats().evicted_capacity, 1u);
    EXPECT_LE(buf.bytes_used(), cfg.capacity_bytes);
}

TEST(buffer, retention_eviction)
{
    buffer_config cfg;
    cfg.retention = 1_s;
    retransmission_buffer buf(cfg);
    buf.store(make_entry(1), sim_time{0});
    buf.store(make_entry(2), sim_time{(500_ms).ns});
    // at t=1.2s, seq 1 is stale but seq 2 is not
    EXPECT_FALSE(buf.fetch(42, 0, 1, sim_time{(1200_ms).ns}).has_value());
    EXPECT_TRUE(buf.fetch(42, 0, 2, sim_time{(1200_ms).ns}).has_value());
    EXPECT_EQ(buf.stats().evicted_retention, 1u);
}

TEST(buffer, replacement_same_key_updates_bytes)
{
    retransmission_buffer buf;
    buf.store(make_entry(7, 1000), sim_time{0});
    buf.store(make_entry(7, 2000), sim_time{0});
    EXPECT_EQ(buf.entries(), 1u);
    EXPECT_EQ(buf.bytes_used(), 2000u);
    const auto hit = buf.fetch(42, 0, 7, sim_time{0});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->size_bytes, 2000u);
}

TEST(buffer, streams_are_isolated_by_experiment)
{
    retransmission_buffer buf;
    buf.store(make_entry(1, 100, 1), sim_time{0});
    buf.store(make_entry(1, 100, 2), sim_time{0});
    EXPECT_EQ(buf.entries(), 2u);
    const auto r1 = buf.fetch_range(1, 0, 0, 10, sim_time{0});
    ASSERT_EQ(r1.size(), 1u);
    EXPECT_EQ(r1[0].experiment, 1u);
}

TEST(buffer, peak_bytes_tracked)
{
    retransmission_buffer buf;
    buf.store(make_entry(1, 3000), sim_time{0});
    buf.store(make_entry(2, 1000), sim_time{0});
    EXPECT_EQ(buf.stats().peak_bytes, 4000u);
}

TEST(buffer, sequence_jump_costs_one_slot_not_the_gap)
{
    // Revive reloads archive records, and the archive reader takes
    // hostile input: a stream that jumps 2^40 sequences must cost one
    // entry, not storage for the gap.
    retransmission_buffer buf;
    buf.store(make_entry(0), sim_time{0});
    buf.store(make_entry(1), sim_time{0});
    constexpr std::uint64_t far = 1ull << 40;
    const std::uint64_t before = g_new_bytes.load(std::memory_order_relaxed);
    buf.store(make_entry(far), sim_time{0});
    buf.store(make_entry(far + 1), sim_time{0});
    const std::uint64_t grown = g_new_bytes.load(std::memory_order_relaxed) - before;
    EXPECT_LT(grown, 4096u);
    EXPECT_EQ(buf.entries(), 4u);
    ASSERT_TRUE(buf.fetch(42, 0, far, sim_time{0}).has_value());
    EXPECT_FALSE(buf.fetch(42, 0, far - 1, sim_time{0}).has_value());
    // A store below the jump lands in the gap, in sequence order.
    buf.store(make_entry(far / 2), sim_time{0});
    const auto all = buf.fetch_range(42, 0, 0, far + 1, sim_time{0});
    ASSERT_EQ(all.size(), 5u);
    const std::uint64_t want[] = {0, 1, far / 2, far, far + 1};
    for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].sequence, want[i]);
}

// ------------------------------------------------ differential reference

namespace {

/// The store the per-stream rings replaced, kept verbatim as the
/// reference: a std::map keyed by (experiment, epoch, sequence) plus a
/// FIFO of keys in store order whose stale slots are skipped lazily.
class reference_buffer {
public:
    explicit reference_buffer(buffer_config cfg) : cfg_(cfg) {}

    void store(buffered_datagram d, sim_time now)
    {
        const key k{d.experiment, d.epoch, d.sequence};
        auto it = by_key_.find(k);
        if (it != by_key_.end()) {
            bytes_ -= it->second.size_bytes;
            by_key_.erase(it);
        }
        d.stored_at = now;
        bytes_ += d.size_bytes;
        stats_.stored++;
        if (bytes_ > stats_.peak_bytes) stats_.peak_bytes = bytes_;
        by_key_[k] = std::move(d);
        fifo_.push_back(k);
        evict(now);
    }

    std::optional<buffered_datagram> fetch(wire::experiment_id experiment,
                                           std::uint16_t epoch, std::uint64_t sequence,
                                           sim_time now)
    {
        evict(now);
        auto it = by_key_.find(key{experiment, epoch, sequence});
        if (it == by_key_.end()) {
            stats_.misses++;
            return std::nullopt;
        }
        stats_.hits++;
        return it->second;
    }

    std::vector<buffered_datagram> fetch_range(wire::experiment_id experiment,
                                               std::uint16_t epoch, std::uint64_t first,
                                               std::uint64_t last, sim_time now)
    {
        evict(now);
        std::vector<buffered_datagram> out;
        auto it = by_key_.lower_bound(key{experiment, epoch, first});
        for (; it != by_key_.end(); ++it) {
            if (it->first.experiment != experiment || it->first.epoch != epoch) break;
            if (it->first.sequence > last) break;
            stats_.hits++;
            out.push_back(it->second);
        }
        if (out.empty()) stats_.misses++;
        return out;
    }

    void sweep(sim_time now) { evict(now); }

    std::uint64_t bytes_used() const { return bytes_; }
    std::size_t entries() const { return by_key_.size(); }
    const buffer_stats& stats() const { return stats_; }

private:
    struct key {
        wire::experiment_id experiment;
        std::uint16_t epoch;
        std::uint64_t sequence;
        auto operator<=>(const key&) const = default;
    };

    void evict(sim_time now)
    {
        while (!fifo_.empty()) {
            const auto& k = fifo_.front();
            auto it = by_key_.find(k);
            if (it == by_key_.end()) {
                fifo_.pop_front();
                continue;
            }
            const bool too_old = (now - it->second.stored_at).ns > cfg_.retention.ns;
            const bool over_capacity = bytes_ > cfg_.capacity_bytes;
            if (!too_old && !over_capacity) break;
            bytes_ -= it->second.size_bytes;
            if (too_old)
                stats_.evicted_retention++;
            else
                stats_.evicted_capacity++;
            by_key_.erase(it);
            fifo_.pop_front();
        }
    }

    buffer_config cfg_;
    std::map<key, buffered_datagram> by_key_;
    std::deque<key> fifo_;
    std::uint64_t bytes_{0};
    buffer_stats stats_;
};

bool same(const buffered_datagram& a, const buffered_datagram& b)
{
    return a.sequence == b.sequence && a.epoch == b.epoch && a.experiment == b.experiment
        && a.timestamp_ns == b.timestamp_ns && a.size_bytes == b.size_bytes
        && a.inline_payload == b.inline_payload && a.stored_at == b.stored_at;
}

bool same(const buffer_stats& a, const buffer_stats& b)
{
    return a.stored == b.stored && a.evicted_capacity == b.evicted_capacity
        && a.evicted_retention == b.evicted_retention && a.hits == b.hits
        && a.misses == b.misses && a.peak_bytes == b.peak_bytes;
}

/// One seeded run of random operations against both stores. Even seeds
/// make retention the binding limit, odd seeds capacity.
void run_differential(std::uint64_t seed, unsigned ops)
{
    rng r(seed);
    buffer_config cfg;
    if (seed % 2 == 0) {
        cfg.retention = sim_duration{200000};
    } else {
        cfg.capacity_bytes = 40000;
        cfg.retention = sim_duration{50000000};
    }
    retransmission_buffer got(cfg);
    reference_buffer want(cfg);

    constexpr unsigned stream_count = 6; // 3 experiments x 2 epochs
    std::uint64_t next[stream_count] = {};
    std::int64_t now = 0;
    const auto pick_stream = [&](unsigned& s, wire::experiment_id& exp, std::uint16_t& epoch) {
        s = static_cast<unsigned>(r.uniform_int(0, stream_count - 1));
        exp = static_cast<wire::experiment_id>(7 + s / 2);
        epoch = static_cast<std::uint16_t>(s % 2);
    };
    // A sequence near the stream's head: mostly recent, sometimes ahead
    // or far below the live window.
    const auto near_seq = [&](unsigned s) -> std::uint64_t {
        const std::uint64_t head = next[s];
        const int shape = static_cast<int>(r.uniform_int(0, 9));
        if (shape < 6) return head - std::min<std::uint64_t>(head, r.uniform_int(0, 40));
        if (shape < 8) return head + r.uniform_int(0, 5);
        return r.uniform_int(0, head);
    };

    for (unsigned op = 0; op < ops; ++op) {
        now += static_cast<std::int64_t>(r.uniform_int(0, 3000));
        const sim_time t{now};
        unsigned s = 0;
        wire::experiment_id exp = 0;
        std::uint16_t epoch = 0;
        pick_stream(s, exp, epoch);
        const int kind = static_cast<int>(r.uniform_int(0, 99));
        const std::string at = "seed " + std::to_string(seed) + " op " + std::to_string(op);

        if (kind < 60) {
            buffered_datagram d;
            d.experiment = exp;
            d.epoch = epoch;
            const int shape = static_cast<int>(r.uniform_int(0, 99));
            if (shape < 70) {
                d.sequence = next[s]++; // in order
            } else if (shape < 80) {
                d.sequence = near_seq(s); // same key, out of order or below window
            } else if (shape < 85) {
                next[s] += r.uniform_int(2, 1000); // a gap
                d.sequence = next[s]++;
            } else if (shape < 86) {
                next[s] += 1ull << 40; // a huge jump
                d.sequence = next[s]++;
            } else {
                d.sequence = next[s] - std::min<std::uint64_t>(next[s], r.uniform_int(1, 20));
            }
            d.timestamp_ns = r.next();
            d.size_bytes = static_cast<std::uint32_t>(r.uniform_int(100, 3000));
            if (r.chance(0.25)) d.inline_payload.assign(r.uniform_int(1, 24), std::uint8_t(op));
            buffered_datagram copy = d;
            got.store(std::move(d), t);
            want.store(std::move(copy), t);
        } else if (kind < 80) {
            const std::uint64_t seq = near_seq(s);
            const auto a = got.fetch(exp, epoch, seq, t);
            const auto b = want.fetch(exp, epoch, seq, t);
            ASSERT_EQ(a.has_value(), b.has_value()) << at;
            if (a) {
                ASSERT_TRUE(same(*a, *b)) << at;
            }
        } else if (kind < 92) {
            const std::uint64_t first = near_seq(s);
            std::uint64_t last = first + r.uniform_int(0, 60);
            if (r.chance(0.1)) last = first - std::min<std::uint64_t>(first, 1); // empty range
            if (r.chance(0.05)) last = ~std::uint64_t{0};
            const auto a = got.fetch_range(exp, epoch, first, last, t);
            const auto b = want.fetch_range(exp, epoch, first, last, t);
            ASSERT_EQ(a.size(), b.size()) << at;
            for (std::size_t i = 0; i < a.size(); ++i) ASSERT_TRUE(same(a[i], b[i])) << at;
        } else {
            if (r.chance(0.2)) now += static_cast<std::int64_t>(cfg.retention.ns);
            got.sweep(sim_time{now});
            want.sweep(sim_time{now});
        }
        ASSERT_TRUE(same(got.stats(), want.stats())) << at;
        ASSERT_EQ(got.bytes_used(), want.bytes_used()) << at;
        ASSERT_EQ(got.entries(), want.entries()) << at;
    }
    // Both limits must actually have bitten.
    EXPECT_GT(got.stats().evicted_retention + got.stats().evicted_capacity, 1000u)
        << "seed " << seed;
    EXPECT_GT(got.stats().hits, 1000u) << "seed " << seed;
}

} // namespace

// 8 seeds x 15k operations: stores (in order, same-key replacement, out
// of order, below the live window, gaps, 2^40 jumps), fetch, fetch_range
// and sweep over several experiments and epochs, under retention and
// capacity eviction, compared after every operation.
TEST(buffer, matches_the_map_reference_on_random_operations)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) run_differential(seed, 15000);
}
