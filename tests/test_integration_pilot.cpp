// Integration tests: the full pilot-study testbed (Fig. 4) — sensor over
// L2 through the DAQ switch to DTN1, in-network mode upgrade at the
// Tofino2-class element, lossy WAN with NAK recovery from DTN1, age
// tracking at both elements, timeliness check at DTN2.
#include "daq/trigger.hpp"
#include "scenario/pilot.hpp"

#include <gtest/gtest.h>

using namespace mmtp;
using namespace mmtp::scenario;
using namespace mmtp::literals;

namespace {

void drive_iceberg(pilot_testbed& tb, std::uint64_t records,
                   std::uint32_t frames_per_record = 10)
{
    daq::iceberg_stream::config cfg;
    cfg.record_limit = records;
    cfg.frames_per_record = frames_per_record;
    daq::iceberg_stream src(tb.net.fork_rng(), cfg);
    tb.sensor_tx->drive(src);
}

} // namespace

TEST(pilot, lossless_end_to_end_delivery)
{
    pilot_config cfg;
    auto tb = make_pilot(cfg);
    drive_iceberg(*tb, 500);
    tb->net.sim().run();

    EXPECT_EQ(tb->dtn1_svc->stats().relayed, 500u);
    EXPECT_EQ(tb->dtn2_rx->stats().datagrams, 500u);
    EXPECT_EQ(tb->dtn2_rx->stats().naks_sent, 0u);
    EXPECT_EQ(tb->dtn2_rx->stats().given_up, 0u);
    EXPECT_EQ(tb->dtn2_rx->outstanding_gaps(), 0u);
}

TEST(pilot, mode_upgraded_in_network_not_at_endpoints)
{
    pilot_config cfg;
    auto tb = make_pilot(cfg);

    // capture the modes seen at DTN2
    std::vector<wire::mode> modes_seen;
    tb->dtn2_rx->set_on_datagram([&](const core::delivered_datagram& d) {
        modes_seen.push_back(d.hdr.m);
    });
    drive_iceberg(*tb, 10);
    tb->net.sim().run();

    ASSERT_EQ(modes_seen.size(), 10u);
    for (const auto& m : modes_seen) {
        // the sensor sent mode 0 (+timestamp); the Tofino2 upgraded it
        EXPECT_TRUE(m.has(wire::feature::sequencing));
        EXPECT_TRUE(m.has(wire::feature::retransmission));
        EXPECT_TRUE(m.has(wire::feature::timeliness));
        // campus boundary stripped the in-network signalling bits
        EXPECT_FALSE(m.has(wire::feature::backpressure));
    }
    // the switch performed the transitions
    EXPECT_EQ(tb->tofino2->state().counter(pnet::counter_id::mode_transitions), 10u);
}

TEST(pilot, sequences_assigned_by_element_match_buffer_prediction)
{
    pilot_config cfg;
    cfg.wan_loss = 0.02;
    auto tb = make_pilot(cfg);
    drive_iceberg(*tb, 800);
    tb->net.sim().run();

    // With 2% WAN loss every record still arrives exactly once, because
    // NAKs hit DTN1's buffer whose mirrored counters matched the
    // element-assigned sequence numbers.
    EXPECT_EQ(tb->dtn2_rx->stats().datagrams, 800u);
    EXPECT_GT(tb->dtn2_rx->stats().recovered, 0u);
    EXPECT_EQ(tb->dtn2_rx->stats().given_up, 0u);
    EXPECT_EQ(tb->dtn1_svc->stats().unavailable, 0u);
}

TEST(pilot, recovery_from_dtn_buffer_under_heavy_loss)
{
    pilot_config cfg;
    cfg.wan_loss = 0.10;
    auto tb = make_pilot(cfg);
    drive_iceberg(*tb, 1000);
    tb->net.sim().run();

    EXPECT_EQ(tb->dtn2_rx->stats().datagrams, 1000u);
    EXPECT_GT(tb->dtn2_rx->stats().recovered, 50u);
    EXPECT_EQ(tb->dtn2_rx->outstanding_gaps(), 0u);
}

TEST(pilot, ages_accumulate_and_deadline_violations_notify_dtn1)
{
    pilot_config cfg;
    cfg.wan_delay = 20_ms;   // long WAN
    cfg.deadline_us = 1000;  // 1 ms budget: every packet will age out
    auto tb = make_pilot(cfg);
    drive_iceberg(*tb, 50);
    tb->net.sim().run();

    EXPECT_EQ(tb->dtn2_rx->stats().datagrams, 50u);
    EXPECT_EQ(tb->dtn2_rx->stats().aged_on_arrival, 50u);
    // age stage at the Alveo saw the violations and notified DTN1
    EXPECT_GT(tb->alveo_rx->state().counter(pnet::counter_id::aged_packets), 0u);
    EXPECT_EQ(tb->deadline_notifications, 50u);
}

TEST(pilot, no_deadline_violations_with_generous_budget)
{
    pilot_config cfg;
    cfg.wan_delay = 1_ms;
    cfg.deadline_us = 1000000; // 1 s
    auto tb = make_pilot(cfg);
    drive_iceberg(*tb, 100);
    tb->net.sim().run();
    EXPECT_EQ(tb->dtn2_rx->stats().aged_on_arrival, 0u);
    EXPECT_EQ(tb->deadline_notifications, 0u);
    // ages were still tracked
    EXPECT_GT(tb->dtn2_rx->stats().age_us.count(), 0u);
}

TEST(pilot, dtn_local_sequencing_ablation_also_recovers)
{
    pilot_config cfg;
    cfg.wan_loss = 0.05;
    cfg.sequence_at_dtn = true; // ablation: host-side sequencing
    auto tb = make_pilot(cfg);
    drive_iceberg(*tb, 500);
    tb->net.sim().run();
    EXPECT_EQ(tb->dtn2_rx->stats().datagrams, 500u);
    EXPECT_EQ(tb->dtn2_rx->stats().given_up, 0u);
    // the element performed no mode transitions in this configuration
    EXPECT_EQ(tb->tofino2->state().counter(pnet::counter_id::mode_transitions), 0u);
}

TEST(pilot, throughput_saturates_wan_link)
{
    // The pilot "saturates 100 GbE links" — drive the sensor at ~43 Gbps
    // x 3 slices... keep it single-stream here: expect goodput close to
    // the offered load with no loss.
    pilot_config cfg;
    auto tb = make_pilot(cfg);

    daq::iceberg_stream::config scfg;
    scfg.record_limit = 20000;
    scfg.trigger_interval = sim_duration{500}; // 5656B/0.5us ≈ 90 Gbps
    daq::iceberg_stream src(tb->net.fork_rng(), scfg);
    tb->sensor_tx->drive(src);

    tb->net.sim().run();
    ASSERT_EQ(tb->dtn2_rx->stats().datagrams, 20000u);
    const double secs = tb->net.sim().now().seconds();
    const double gbps = static_cast<double>(tb->dtn2_rx->stats().bytes) * 8.0 / secs / 1e9;
    EXPECT_GT(gbps, 60.0); // saturating territory on the 100G path
}

TEST(pilot, in_network_duplication_to_subscriber)
{
    pilot_config cfg;
    auto tb = make_pilot(cfg);

    // add a researcher host hanging off the tofino2 and subscribe it
    auto& researcher = tb->net.add_host("researcher");
    tb->net.connect(*tb->tofino2, researcher, netsim::link_config{});
    tb->net.compute_routes();
    core::stack r_stack(researcher, tb->net.ids());
    std::uint64_t got = 0;
    r_stack.set_data_sink([&](core::delivered_datagram&&) { got++; });
    tb->duplication->add_subscriber(wire::experiments::iceberg, researcher.address());

    // duplication only applies to streams whose mode allows it: add a
    // rule (to the table that runs just before the duplication stage)
    // activating the duplication bit for iceberg traffic
    pnet::mode_rule rule;
    rule.experiment = wire::experiments::iceberg;
    rule.set_bits = wire::feature_bit(wire::feature::duplication);
    tb->dup_mode_stage->add_rule(rule);

    drive_iceberg(*tb, 100);
    tb->net.sim().run();
    EXPECT_EQ(tb->dtn2_rx->stats().datagrams, 100u); // primary unaffected
    EXPECT_EQ(got, 100u);                            // subscriber got copies
    EXPECT_EQ(tb->tofino2->stats().clones, 100u);
}
