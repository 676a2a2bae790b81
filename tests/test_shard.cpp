// The sharded simulation engine: the barrier-synchronous control plane,
// epoch-boundary edge cases (zero-latency cuts rejected, mailbox ties
// broken by (arrival, shard, seq)), and whole-drill determinism at
// shards ∈ {1, 2, 4} and link burst ∈ {1, 32}, equal across counts.
#include "netsim/network.hpp"
#include "netsim/shard.hpp"
#include "scenario/campaign.hpp"
#include "scenario/chaos.hpp"
#include "scenario/dsl.hpp"
#include "scenario/soak.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

using namespace mmtp;
using namespace mmtp::netsim;

namespace {

/// Records every delivery (time, packet id, ingress port) in order.
class sink_node : public node {
public:
    using node::node;

    struct arrival {
        std::int64_t at_ns;
        std::uint64_t id;
        unsigned port;
    };
    std::vector<arrival> arrivals;

    void receive(packet&& p, unsigned ingress_port) override
    {
        arrivals.push_back({sim().now().ns, p.id, ingress_port});
    }
};

packet make_packet(std::uint64_t id)
{
    packet p;
    p.id = id;
    return p;
}

} // namespace

// ------------------------------------------ the barrier control plane

// Multi-shard, the control plane is an engine of its own: its tasks run
// at the barrier in (time, schedule order), before any shard event that
// is not earlier, and now() stays at the last task's time.
TEST(control_plane, runs_tasks_in_time_then_schedule_order)
{
    shard_coordinator coord(2);
    engine& ctl = coord.control_plane();
    EXPECT_NE(&ctl, &coord.shard(0));

    std::vector<int> order;
    std::vector<std::int64_t> times;
    auto log = [&](int tag) {
        return [&, tag] {
            order.push_back(tag);
            times.push_back(ctl.now().ns);
        };
    };
    ctl.schedule_at(sim_time{300}, log(3));
    ctl.schedule_at(sim_time{100}, log(1));
    ctl.schedule_at(sim_time{100}, log(2)); // same instant: schedule order
    ctl.schedule_at(sim_time{900}, log(5));
    std::int64_t ctl_now_seen_by_shard = -1;
    coord.shard(1).schedule_at(sim_time{500}, [&] {
        order.push_back(4);
        times.push_back(coord.shard(1).now().ns);
        ctl_now_seen_by_shard = ctl.now().ns;
    });

    sim_time at;
    ASSERT_TRUE(ctl.next_event_at(at));
    EXPECT_EQ(at.ns, 100);
    EXPECT_EQ(coord.run(), 5u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(times, (std::vector<std::int64_t>{100, 100, 300, 500, 900}));
    // The drain before the shard event stopped at the last task's time,
    // not at its limit (the shard event's 500).
    EXPECT_EQ(ctl_now_seen_by_shard, 300);
    EXPECT_EQ(ctl.now().ns, 900);
    EXPECT_TRUE(ctl.empty());
    // Control tasks are not shard events.
    EXPECT_EQ(coord.executed(), 1u);
}

TEST(control_plane, cancellation_is_generation_checked)
{
    shard_coordinator coord(2);
    engine& ctl = coord.control_plane();
    bool fired = false;
    auto h = ctl.schedule_cancellable_in(sim_duration{100}, task_class::timer,
                                         [&] { fired = true; });
    const timer_handle copy = h;
    EXPECT_TRUE(ctl.cancel(h));
    EXPECT_FALSE(ctl.cancel(h)); // deactivated
    EXPECT_EQ(coord.run(), 0u);
    EXPECT_FALSE(fired);
    EXPECT_TRUE(ctl.empty());

    // The reaped slot is reused; the old handle must not reach the new
    // timer parked there.
    bool fired2 = false;
    auto h2 = ctl.schedule_cancellable_in(sim_duration{100}, task_class::timer,
                                          [&] { fired2 = true; });
    EXPECT_EQ(h2.slot, copy.slot);
    timer_handle stale = copy;
    EXPECT_FALSE(ctl.cancel(stale));
    EXPECT_EQ(coord.run(), 1u);
    EXPECT_TRUE(fired2);
}

// -------------------------------------------- epoch-boundary edge cases

// A cut link's propagation delay is the conservative lookahead; zero
// would let one shard inject events into another's running epoch.
TEST(shard_partition, zero_latency_cut_links_are_rejected)
{
    network net(1, /*shards=*/2);
    auto& a = net.add_host("a");
    net.set_domain(1);
    auto& b = net.add_host("b");

    link_config zero_prop;
    zero_prop.propagation = sim_duration{0};
    EXPECT_THROW(net.connect_simplex(a, b, zero_prop), std::invalid_argument);

    // The same config is fine within one shard...
    net.set_domain(0);
    auto& c = net.add_host("c");
    EXPECT_NO_THROW(net.connect_simplex(a, c, zero_prop));
    // ...and across the cut once it carries real delay.
    link_config with_prop;
    with_prop.propagation = sim_duration{1000};
    EXPECT_NO_THROW(net.connect_simplex(a, b, with_prop));
    EXPECT_EQ(net.coordinator().lookahead().ns, 1000);
}

// Mail staged by different shards for the same destination must be
// inserted in (arrival time, source shard, mailbox seq) order — the
// tie-break that makes a run independent of the order shards ran in.
TEST(shard_mailboxes, ties_break_by_arrival_then_shard_then_seq)
{
    shard_coordinator coord(3);
    sink_node sink(coord.shard(0), "sink", 0x0a000001u, 0x02ull);

    // Stage deliberately out of order: a later shard first, then an
    // earlier shard twice at the same instant, then an earlier time.
    coord.post_arrival(2, 0, sim_time{100}, make_packet(21), sink, 4);
    coord.post_arrival(1, 0, sim_time{100}, make_packet(11), sink, 5);
    coord.post_arrival(1, 0, sim_time{100}, make_packet(12), sink, 6);
    coord.post_arrival(1, 0, sim_time{50}, make_packet(13), sink, 7);
    coord.run();

    ASSERT_EQ(sink.arrivals.size(), 4u);
    EXPECT_EQ(sink.arrivals[0].id, 13u); // earliest arrival first
    EXPECT_EQ(sink.arrivals[1].id, 11u); // then shard 1 before shard 2...
    EXPECT_EQ(sink.arrivals[2].id, 12u); // ...in mailbox-seq order
    EXPECT_EQ(sink.arrivals[3].id, 21u);
    EXPECT_EQ(sink.arrivals[0].at_ns, 50);
    EXPECT_EQ(sink.arrivals[3].at_ns, 100);
    EXPECT_EQ(coord.scaling().cross_shard_messages, 4u);
}

// Without cut links the lookahead is unbounded: the whole run is one
// epoch, which is also the single-shard degenerate case.
TEST(shard_epochs, no_cut_links_means_one_epoch)
{
    shard_coordinator coord(2);
    int fired = 0;
    coord.shard(0).schedule_at(sim_time{100}, [&] { fired++; });
    coord.shard(1).schedule_at(sim_time{200}, [&] { fired++; });
    coord.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(coord.scaling().epochs, 1u);
}

TEST(shard_epochs, cut_lookahead_bounds_epochs)
{
    scenario::chaos_config cfg;
    cfg.shards = 3;
    auto tb = scenario::make_chaos(cfg);
    tb->net.coordinator().run();
    const auto& sc = tb->net.coordinator().scaling();
    // The drill spans ~10 ms of virtual time with a 1 us lookahead:
    // conservative epochs must have advanced in many small steps, and
    // traffic crossed the cuts.
    EXPECT_GT(sc.epochs, 100u);
    EXPECT_GT(sc.cross_shard_messages, 0u);
}

// --------------------------------------------------- drill determinism

// Each shard count must reproduce itself byte for byte, and shards = 2
// and 4 must also reproduce the shards = 1 run: the same report, and the
// same metrics apart from the engine and coordinator counters. At burst
// 32 the cut links carry bursts through the mailboxes.
TEST(shard_determinism, chaos_identical_at_1_2_and_4_shards)
{
    for (std::uint32_t burst : {1u, 32u}) {
        std::string one_csv;
        std::string one_metrics;
        for (unsigned shards : {1u, 2u, 4u}) {
            scenario::chaos_config cfg = scenario::kill_revive_config();
            cfg.link_burst = burst;
            cfg.shards = shards;
            const auto a = scenario::run_chaos_drill(cfg);
            const auto b = scenario::run_chaos_drill(cfg);
            const std::string at =
                "burst=" + std::to_string(burst) + " shards=" + std::to_string(shards);
            EXPECT_EQ(a.csv, b.csv) << at;
            EXPECT_EQ(a.metrics_csv, b.metrics_csv) << at;
            const std::string rows = scenario::campaign::shard_independent_rows(a.metrics_csv);
            if (shards == 1) {
                one_csv = a.csv;
                one_metrics = rows;
            } else {
                EXPECT_EQ(a.csv, one_csv) << at << " vs 1";
                EXPECT_EQ(rows, one_metrics) << at << " vs 1";
            }
            // Sharding must not change what the drill proves, only where
            // it runs: the full kill-and-revive story stays green. At
            // burst 32 the link's pump has already committed the primary
            // queue's whole backlog when the fault lands, so nothing is
            // stranded, the first wave is repaired without a failover and
            // the recovery trackers (which wait for one) stay unset at
            // every shard count (DESIGN §12); the equal reports above pin
            // that.
            EXPECT_EQ(a.rx.given_up, 0u) << at;
            if (burst == 1) {
                EXPECT_TRUE(a.recovered) << at;
                EXPECT_TRUE(a.recovered2) << at;
            }
        }
    }
}

TEST(shard_determinism, soak_identical_at_1_2_and_4_shards)
{
    for (std::uint32_t burst : {1u, 32u}) {
        std::string one_csv;
        std::string one_metrics;
        for (unsigned shards : {1u, 2u, 4u}) {
            scenario::soak_config cfg = scenario::soak_smoke_config();
            cfg.link_burst = burst;
            cfg.shards = shards;
            const auto a = scenario::run_soak_drill(cfg);
            const auto b = scenario::run_soak_drill(cfg);
            const std::string at =
                "burst=" + std::to_string(burst) + " shards=" + std::to_string(shards);
            EXPECT_EQ(a.csv, b.csv) << at;
            EXPECT_EQ(a.metrics_csv, b.metrics_csv) << at;
            const std::string rows = scenario::campaign::shard_independent_rows(a.metrics_csv);
            if (shards == 1) {
                one_csv = a.csv;
                one_metrics = rows;
            } else {
                EXPECT_EQ(a.csv, one_csv) << at << " vs 1";
                EXPECT_EQ(rows, one_metrics) << at << " vs 1";
            }
            EXPECT_TRUE(a.all_delivered) << at;
            EXPECT_TRUE(a.all_experiments_complete) << at;
        }
    }
}

// ------------------------------------------------- the DSL shards knob

TEST(shard_dsl, engine_section_sets_shards_everywhere)
{
    const auto out = scenario::parse_scenario("[scenario]\n"
                                              "topology = soak\n"
                                              "\n"
                                              "[engine]\n"
                                              "shards = 4\n");
    ASSERT_TRUE(out) << out.error.to_string();
    EXPECT_EQ(out.spec->shards(), 4u);
    EXPECT_EQ(out.spec->soak.shards, 4u);
}

TEST(shard_dsl, out_of_range_shards_fail_with_line_number)
{
    const auto out = scenario::parse_scenario("[scenario]\n"
                                              "topology = chaos\n"
                                              "[engine]\n"
                                              "shards = 65\n");
    EXPECT_FALSE(out);
    EXPECT_EQ(out.error.line, 4u);
    EXPECT_NE(out.error.message.find("shards"), std::string::npos);

    const auto zero = scenario::parse_scenario("[scenario]\n"
                                               "topology = chaos\n"
                                               "[engine]\n"
                                               "shards = 0\n");
    EXPECT_FALSE(zero);
    EXPECT_EQ(zero.error.line, 4u);
}

// pilot, today, overload and shapeshift put every node in domain 0, so
// they have no shard count: `shards` above 1 fails on its own line, also
// when [engine] comes before the topology is known, and 1 still parses.
namespace {

void expect_single_domain(const std::string& topology)
{
    const auto after = scenario::parse_scenario("[scenario]\n"
                                                "topology = " + topology + "\n"
                                                "\n"
                                                "[engine]\n"
                                                "shards = 2\n");
    EXPECT_FALSE(after) << topology;
    EXPECT_EQ(after.error.line, 5u) << topology;
    EXPECT_NE(after.error.message.find("shards must be 1 for topology '" + topology + "'"),
              std::string::npos)
        << after.error.message;

    const auto before = scenario::parse_scenario("[engine]\n"
                                                 "shards = 3\n"
                                                 "[scenario]\n"
                                                 "topology = " + topology + "\n");
    EXPECT_FALSE(before) << topology;
    EXPECT_EQ(before.error.line, 2u) << topology;

    const auto one = scenario::parse_scenario("[scenario]\n"
                                              "topology = " + topology + "\n"
                                              "[engine]\n"
                                              "shards = 1\n");
    ASSERT_TRUE(one) << one.error.to_string();
    EXPECT_FALSE(one.spec->shardable());
    EXPECT_EQ(one.spec->shards(), 1u);
}

} // namespace

TEST(shard_dsl, pilot_rejects_more_than_one_shard) { expect_single_domain("pilot"); }
TEST(shard_dsl, today_rejects_more_than_one_shard) { expect_single_domain("today"); }
TEST(shard_dsl, overload_rejects_more_than_one_shard) { expect_single_domain("overload"); }
TEST(shard_dsl, shapeshift_rejects_more_than_one_shard)
{
    expect_single_domain("shapeshift");
}

TEST(shard_dsl, render_parse_render_fixed_point_keeps_shards)
{
    scenario::scenario_spec spec;
    spec.topology = "chaos";
    spec.set_shards(2);
    const auto text = scenario::render_scenario(spec);
    EXPECT_NE(text.find("[engine]"), std::string::npos);
    EXPECT_NE(text.find("shards = 2"), std::string::npos);
    const auto parsed = scenario::parse_scenario(text);
    ASSERT_TRUE(parsed) << parsed.error.to_string();
    EXPECT_EQ(parsed.spec->shards(), 2u);
    EXPECT_EQ(scenario::render_scenario(*parsed.spec), text);
}
