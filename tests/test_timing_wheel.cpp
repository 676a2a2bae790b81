// Hierarchical timing wheel unit tests: the wheel must reproduce exactly
// the (at, seq) total order a stable min-heap would give — across level
// cascades, same-instant ties, late pushes behind the prepared tick, and
// re-anchoring after the wheel drains. Plus the engine-level contracts
// built on it: wheel/heap interleave, far-future overflow into the heap,
// and timer cancellation (handles, stats, reaping).
#include "common/timing_wheel.hpp"
#include "netsim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

using namespace mmtp;
using namespace mmtp::netsim;

namespace {

struct wkey {
    sim_time at;
    std::uint64_t seq;
    bool operator==(const wkey&) const = default;
};

/// Drains the wheel completely, returning keys in pop order.
std::vector<wkey> drain(timing_wheel<wkey>& w)
{
    std::vector<wkey> out;
    while (w.peek() != nullptr) out.push_back(w.pop());
    return out;
}

std::vector<wkey> sorted_copy(std::vector<wkey> v)
{
    std::stable_sort(v.begin(), v.end(), [](const wkey& a, const wkey& b) {
        if (a.at != b.at) return a.at < b.at;
        return a.seq < b.seq;
    });
    return v;
}

} // namespace

// ------------------------------------------------------------ raw wheel

// Entries straddling every level boundary must come back in time order.
// resolution_bits = 0 makes tick == ns, so the windows are exactly
// L0: [0, 256), L1: [0, 65536), L2: [0, 2^24), L3: [0, 2^32).
TEST(timing_wheel, cascade_boundaries_preserve_order)
{
    timing_wheel<wkey> w(0);
    std::uint64_t seq = 0;
    std::vector<wkey> pushed;
    const std::int64_t edges[] = {
        1,
        255,        256,        257,        // L0 -> L1 edge
        65535,      65536,      65537,      // L1 -> L2 edge
        (1 << 24) - 1, 1 << 24, (1 << 24) + 1, // L2 -> L3 edge
        (1ll << 32) - 1,                    // last tick inside the horizon
    };
    // Push in a scrambled order so placement never sees sorted input.
    const int order[] = {7, 0, 10, 3, 5, 1, 9, 2, 8, 4, 6};
    for (int i : order) pushed.push_back({sim_time{edges[i]}, seq++});
    for (const auto& k : pushed) ASSERT_TRUE(w.push(k, sim_time::zero()));

    EXPECT_EQ(drain(w), sorted_copy(pushed));
    EXPECT_TRUE(w.empty());
}

// Same-instant entries must drain in push (seq) order — the FIFO tie
// contract the engine's same-instant guarantee rests on.
TEST(timing_wheel, same_instant_fifo_order)
{
    timing_wheel<wkey> w; // default 1.024 us resolution
    for (std::uint64_t s = 0; s < 100; ++s)
        ASSERT_TRUE(w.push({sim_time{500000}, s}, sim_time::zero()));
    // A few distinct instants inside the same level-0 tick, out of order.
    ASSERT_TRUE(w.push({sim_time{500900}, 100}, sim_time::zero()));
    ASSERT_TRUE(w.push({sim_time{500100}, 101}, sim_time::zero()));

    const auto got = drain(w);
    ASSERT_EQ(got.size(), 102u);
    for (std::uint64_t s = 0; s < 100; ++s) {
        EXPECT_EQ(got[s].at, sim_time{500000});
        EXPECT_EQ(got[s].seq, s);
    }
    EXPECT_EQ(got[100].seq, 101u); // 500100 before 500900
    EXPECT_EQ(got[101].seq, 100u);
}

// A push that lands at or behind the tick peek() has already prepared
// must still surface in exact (at, seq) position, not at the end.
TEST(timing_wheel, late_push_behind_prepared_tick)
{
    timing_wheel<wkey> w(0);
    ASSERT_TRUE(w.push({sim_time{5000}, 0}, sim_time::zero()));
    ASSERT_NE(w.peek(), nullptr); // advances the wheel position to 5000

    ASSERT_TRUE(w.push({sim_time{5000}, 1}, sim_time{5000})); // same-instant, later seq
    ASSERT_TRUE(w.push({sim_time{4000}, 2}, sim_time{5000})); // behind the position

    const auto got = drain(w);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].seq, 2u); // 4000 first despite being pushed last
    EXPECT_EQ(got[1].seq, 0u);
    EXPECT_EQ(got[2].seq, 1u);
}

// Beyond-horizon keys are rejected (the engine keeps them in its heap);
// the wheel state must be untouched by the rejection.
TEST(timing_wheel, far_future_rejected_at_horizon)
{
    timing_wheel<wkey> w(0); // horizon = 2^32 ticks of 1 ns
    EXPECT_FALSE(w.push({sim_time{1ll << 32}, 0}, sim_time::zero()));
    EXPECT_TRUE(w.empty());

    ASSERT_TRUE(w.push({sim_time{(1ll << 32) - 1}, 1}, sim_time::zero()));
    EXPECT_FALSE(w.push({sim_time{1ll << 33}, 2}, sim_time::zero()));
    EXPECT_EQ(w.size(), 1u);
    const auto got = drain(w);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].seq, 1u);
}

// A drained wheel re-anchors at the caller's `now`, so the full horizon
// is available again no matter how far simulated time has advanced.
TEST(timing_wheel, reanchors_after_drain)
{
    timing_wheel<wkey> w(0);
    ASSERT_TRUE(w.push({sim_time{10}, 0}, sim_time::zero()));
    drain(w);

    const std::int64_t far = 1ll << 40; // way past the original horizon
    ASSERT_TRUE(w.push({sim_time{far + 100}, 1}, sim_time{far}));
    ASSERT_TRUE(w.push({sim_time{far + (1ll << 31)}, 2}, sim_time{far}));
    EXPECT_FALSE(w.push({sim_time{far + (1ll << 33)}, 3}, sim_time{far}));

    const auto got = drain(w);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].seq, 1u);
    EXPECT_EQ(got[1].seq, 2u);
}

// Randomized order check against a stable-sort reference: thousands of
// keys over a span crossing several cascade windows, pushed out of order.
TEST(timing_wheel, randomized_matches_stable_sort_reference)
{
    timing_wheel<wkey> w(0);
    std::mt19937_64 rng(20260807);
    // Heavy tie mass (coarse grid) + a spread across three levels.
    std::uniform_int_distribution<std::int64_t> coarse(0, 99);
    std::uniform_int_distribution<std::int64_t> spread(0, (1 << 20) - 1);

    std::vector<wkey> pushed;
    for (std::uint64_t s = 0; s < 5000; ++s) {
        const std::int64_t at =
            (s % 3 == 0) ? coarse(rng) * 1000 : spread(rng);
        pushed.push_back({sim_time{at}, s});
    }
    for (const auto& k : pushed) ASSERT_TRUE(w.push(k, sim_time::zero()));

    EXPECT_EQ(drain(w), sorted_copy(pushed));
}

// Incremental operation: interleave pushes with pops (push `now` follows
// the last popped time, as the engine does) and verify global order.
TEST(timing_wheel, interleaved_push_pop_keeps_order)
{
    timing_wheel<wkey> w; // default resolution
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<std::int64_t> ahead(1, 5'000'000);

    std::uint64_t seq = 0;
    sim_time now = sim_time::zero();
    for (int i = 0; i < 50; ++i) ASSERT_TRUE(w.push({now + sim_duration{ahead(rng)}, seq++}, now));

    sim_time last = sim_time::zero();
    std::uint64_t popped = 0, pushed = 50;
    while (w.peek() != nullptr) {
        const wkey k = w.pop();
        popped++;
        EXPECT_GE(k.at, last) << "pop went back in time";
        last = k.at;
        now = k.at;
        if (pushed < 3000) {
            // Future work spawned from a firing timer, as the engine does.
            ASSERT_TRUE(w.push({now + sim_duration{ahead(rng)}, seq++}, now));
            pushed++;
            if (pushed % 3 == 0) {
                ASSERT_TRUE(w.push({now + sim_duration{ahead(rng) / 64}, seq++}, now));
                pushed++;
            }
        }
    }
    EXPECT_EQ(popped, pushed);
}

// ------------------------------------------------- engine integration

// Wheel-routed classes (timer/protocol/control) and heap classes
// (generic) scheduled for identical instants must fire in global
// insertion order — the engine merges both structures on (at, seq).
TEST(engine_wheel, wheel_and_heap_interleave_in_insertion_order)
{
    engine e;
    std::vector<int> order;
    int tag = 0;
    for (int i = 0; i < 40; ++i) {
        const sim_duration at{1000 + (i % 5) * 3000};
        const auto cls = (i % 2 == 0) ? task_class::timer : task_class::generic;
        const int t = tag++;
        e.schedule_in(at, cls, [&order, t] { order.push_back(t); });
    }
    e.run();

    ASSERT_EQ(order.size(), 40u);
    // Reference: stable sort of (time, insertion index).
    std::vector<int> expect(40);
    for (int i = 0; i < 40; ++i) expect[static_cast<std::size_t>(i)] = i;
    std::stable_sort(expect.begin(), expect.end(),
                     [](int a, int b) { return (a % 5) < (b % 5); });
    EXPECT_EQ(order, expect);
}

// Timer-class events beyond the wheel horizon (~73 min) silently stay on
// the heap and still fire at the right time, after nearer wheel timers.
TEST(engine_wheel, far_future_timer_falls_back_to_heap)
{
    engine e;
    std::vector<int> order;
    const sim_duration two_hours{2ll * 3600 * 1000000000};
    e.schedule_in(two_hours, task_class::timer, [&] { order.push_back(1); });
    e.schedule_in(sim_duration{5000}, task_class::timer, [&] { order.push_back(0); });
    const auto executed = e.run();

    EXPECT_EQ(executed, 2u);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(e.now(), sim_time{} + two_hours);
}

// ------------------------------------------------------- cancellation

TEST(engine_cancel, cancelled_timer_never_fires_and_is_counted)
{
    engine e;
    int fired = 0;
    auto h = e.schedule_cancellable_in(sim_duration{1000}, task_class::timer,
                                       [&] { fired++; });
    EXPECT_TRUE(h.active());
    EXPECT_TRUE(e.cancel(h));
    EXPECT_FALSE(h.active()); // cancel() deactivates the handle
    EXPECT_FALSE(e.cancel(h)); // double cancel is a no-op

    const auto executed = e.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(executed, 0u); // reaped, not executed
    EXPECT_EQ(e.profile().timers_cancelled, 1u);
}

TEST(engine_cancel, stale_handle_after_fire_is_noop)
{
    engine e;
    int fired = 0;
    auto h = e.schedule_cancellable_in(sim_duration{1000}, task_class::timer,
                                       [&] { fired++; });
    e.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(e.cancel(h)); // slot already recycled; gen mismatch
    EXPECT_EQ(e.profile().timers_cancelled, 0u);

    // The recycled slot must not be cancellable through the old handle
    // even when a new timer occupies it.
    int fired2 = 0;
    auto h2 = e.schedule_cancellable_in(sim_duration{1000}, task_class::timer,
                                        [&] { fired2++; });
    EXPECT_FALSE(e.cancel(h));
    e.run();
    EXPECT_EQ(fired2, 1);
    (void)h2;
}

TEST(engine_cancel, self_cancel_inside_callback_is_noop)
{
    engine e;
    int fired = 0;
    timer_handle h;
    h = e.schedule_cancellable_in(sim_duration{1000}, task_class::timer, [&] {
        fired++;
        EXPECT_FALSE(e.cancel(h)); // mid-fire: nothing to drop
    });
    e.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(e.profile().timers_cancelled, 0u);
}

// run_until() must not count a cancelled front timer as pending work: the
// dead key is reaped while probing for the next event time.
TEST(engine_cancel, run_until_skips_cancelled_front_timer)
{
    engine e;
    int fired = 0;
    auto front = e.schedule_cancellable_in(sim_duration{1000}, task_class::timer,
                                           [&] { fired += 100; });
    e.schedule_in(sim_duration{2000}, task_class::generic, [&] { fired += 1; });
    EXPECT_TRUE(e.cancel(front));

    const auto first = e.run_until(sim_time{1500});
    EXPECT_EQ(first, 0u); // nothing live before 1500
    const auto second = e.run_until(sim_time{2500});
    EXPECT_EQ(second, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(e.empty());
    EXPECT_EQ(e.profile().timers_cancelled, 1u);
}

// Cancel + reschedule chains (the RTO/pacing supersede pattern) must
// stay leak-free in slots: every cancelled slot is reused.
TEST(engine_cancel, supersede_chain_reuses_slots)
{
    engine e;
    int fired = 0;
    timer_handle pending{};
    for (int i = 0; i < 1000; ++i) {
        e.cancel(pending);
        pending = e.schedule_cancellable_in(sim_duration{10000 + i},
                                            task_class::timer, [&] { fired++; });
    }
    e.run();
    EXPECT_EQ(fired, 1); // only the last survivor fires
    EXPECT_EQ(e.profile().timers_cancelled, 999u);
    EXPECT_EQ(e.profile().executed, 1u);
}
