#include "scenario/driver.hpp"

#include "daq/message.hpp"
#include "daq/trigger.hpp"

#include <cstdio>

namespace mmtp::scenario {

int run_example(driver& d, driver* rerun)
{
    std::printf("%s\n", d.describe().c_str());
    d.run();

    telemetry::metrics_registry reg;
    auto t = d.report(reg);
    t.print();
    const auto snapshot = reg.to_csv();
    std::printf("\nmetrics snapshot:\n%s", snapshot.c_str());

    if (rerun != nullptr) {
        rerun->run();
        telemetry::metrics_registry reg2;
        const auto t2 = rerun->report(reg2);
        const bool identical = t.csv() == t2.csv() && snapshot == reg2.to_csv();
        std::printf("\nsame-seed rerun telemetry identical: %s\n",
                    identical ? "yes" : "NO — determinism broken");
        if (!identical) return 1;
    }
    return 0;
}

driver::acceptance driver::sequenced(std::uint64_t expected,
                                     const core::receiver_stats& rx,
                                     std::uint64_t outstanding_gaps)
{
    acceptance a;
    a.expected = expected;
    a.delivered = rx.datagrams;
    a.duplicates = rx.duplicates;
    a.given_up = rx.given_up;
    a.outstanding_gaps = outstanding_gaps;
    a.whole = a.delivered == a.expected && a.given_up == 0 && a.outstanding_gaps == 0;
    return a;
}

// --- pilot ---------------------------------------------------------------

pilot_driver::pilot_driver() : pilot_driver(options{}) {}
pilot_driver::pilot_driver(options opt) : opt_(std::move(opt)) {}

std::string pilot_driver::describe() const
{
    // Integer-only formatting: std::to_string(double) renders through
    // sprintf("%f"), whose decimal point is locale-dependent — the
    // determinism audit pins every banner to pure integer math.
    const auto loss_bp =
        static_cast<std::uint64_t>(opt_.pilot.wan_loss * 10000.0 + 0.5);
    return "pilot study (Fig. 4): " + std::to_string(opt_.records)
        + " ICEBERG trigger records, " + std::to_string(loss_bp / 100) + "."
        + std::to_string(loss_bp % 100 / 10) + std::to_string(loss_bp % 10)
        + "% WAN loss, " + std::to_string(opt_.pilot.wan_delay.ns / 1000000)
        + " ms WAN delay";
}

run_context pilot_driver::build()
{
    tb_ = make_pilot(opt_.pilot);
    daq::iceberg_stream::config icfg;
    icfg.record_limit = opt_.records;
    icfg.frames_per_record = opt_.frames_per_record;
    daq::iceberg_stream source(tb_->net.fork_rng(), icfg);
    records_driven_ = tb_->sensor_tx->drive(source);
    return run_context(tb_->net);
}

telemetry::table pilot_driver::report(telemetry::metrics_registry& reg)
{
    telemetry::register_engine_metrics(reg, tb_->net.coordinator());
    telemetry::register_stack_metrics(reg, "sensor", *tb_->sensor_stack);
    telemetry::register_stack_metrics(reg, "dtn1", *tb_->dtn1_stack);
    telemetry::register_stack_metrics(reg, "dtn2", *tb_->dtn2_stack);
    telemetry::register_sender_metrics(reg, "sensor", *tb_->sensor_tx);
    telemetry::register_receiver_metrics(reg, "dtn2", *tb_->dtn2_rx);
    telemetry::register_buffer_metrics(reg, "dtn1", *tb_->dtn1_svc);
    telemetry::register_element_metrics(reg, "tofino2", *tb_->tofino2);
    telemetry::register_element_metrics(reg, "alveo", *tb_->alveo_rx);

    telemetry::table t("pilot study");
    t.set_columns({"metric", "value"});
    auto row = [&](const char* name, std::uint64_t v) {
        t.add_row({name, telemetry::fmt_count(v)});
    };
    row("records_driven", records_driven_);
    row("dtn1_relayed", tb_->dtn1_svc->stats().relayed);
    row("mode_transitions", tb_->tofino2->state().counter(pnet::counter_id::mode_transitions));
    row("nak_requests_served", tb_->dtn1_svc->stats().nak_requests);
    row("retransmitted", tb_->dtn1_svc->stats().retransmitted);
    row("delivered", tb_->dtn2_rx->stats().datagrams);
    row("recovered", tb_->dtn2_rx->stats().recovered);
    row("duplicates", tb_->dtn2_rx->stats().duplicates);
    row("given_up", tb_->dtn2_rx->stats().given_up);
    row("aged_on_arrival", tb_->dtn2_rx->stats().aged_on_arrival);
    row("deadline_notifications", tb_->deadline_notifications);
    return t;
}

driver::acceptance pilot_driver::accept()
{
    const auto& rx = *tb_->dtn2_rx;
    return sequenced(records_driven_, rx.stats(), rx.outstanding_gaps());
}

netsim::network& pilot_driver::network() { return tb_->net; }

// --- today ---------------------------------------------------------------

today_driver::today_driver() : today_driver(options{}) {}
today_driver::today_driver(options opt) : opt_(std::move(opt)) {}

std::string today_driver::describe() const
{
    return "status-quo pipeline (Fig. 2): " + std::to_string(opt_.messages)
        + " UDP messages of " + std::to_string(opt_.message_bytes)
        + " B into the relay chain";
}

run_context today_driver::build()
{
    tb_ = make_today(opt_.today);
    daq::steady_source source(wire::make_experiment_id(wire::experiments::dune, 0),
                              opt_.message_bytes, opt_.message_interval,
                              sim_time::zero(), opt_.messages);
    bytes_scheduled_ = tb_->drive_sensor(source);
    return run_context(tb_->net);
}

telemetry::table today_driver::report(telemetry::metrics_registry& reg)
{
    telemetry::register_engine_metrics(reg, tb_->net.coordinator());

    telemetry::table t("status-quo pipeline");
    t.set_columns({"metric", "value"});
    t.add_row({"bytes_scheduled", telemetry::fmt_count(bytes_scheduled_)});
    t.add_row({"dtn1_received_bytes", telemetry::fmt_count(tb_->dtn1_received_bytes)});
    t.add_row(
        {"dtn1_received_datagrams", telemetry::fmt_count(tb_->dtn1_received_datagrams)});
    return t;
}

driver::acceptance today_driver::accept()
{
    // The status-quo pipeline has no sequencing: acceptance is byte
    // accounting at the first UDP hop (and the scenario is lossy).
    acceptance a;
    a.expected = bytes_scheduled_;
    a.delivered = tb_->dtn1_received_bytes;
    a.whole = a.delivered == a.expected;
    return a;
}

netsim::network& today_driver::network() { return tb_->net; }

// --- the fault drills (drill_driver does the rest) ----------------------

std::string chaos_driver::describe() const
{
    return "chaos drill: " + std::to_string(cfg_.messages) + " messages of "
        + std::to_string(cfg_.message_bytes) + " B, WAN + buffer fault at "
        + std::to_string(cfg_.fault_at.ns / 1000000) + " ms";
}

std::string overload_driver::describe() const
{
    // Offered Gbps in tenths, integer-only (bits per ns == Gbps).
    const std::uint64_t offered_dgbps = cfg_.message_interval.ns > 0
        ? (80ull * cfg_.message_bytes)
            / static_cast<std::uint64_t>(cfg_.message_interval.ns)
        : 0;
    return "overload drill: " + std::to_string(cfg_.messages) + " messages at "
        + std::to_string(offered_dgbps / 10) + "."
        + std::to_string(offered_dgbps % 10) + " Gbps offered over a "
        + std::to_string(cfg_.wan_rate.bits_per_sec / 1000000000) + " Gbps WAN";
}

std::string soak_driver::describe() const
{
    const std::uint64_t total = static_cast<std::uint64_t>(soak_experiments)
        * cfg_.slices_per_experiment * cfg_.messages_per_stream;
    return "facility soak: 5 experiments x "
        + std::to_string(cfg_.slices_per_experiment) + " slices x "
        + std::to_string(cfg_.messages_per_stream) + " messages ("
        + std::to_string(total) + " total) under a fault-and-overload storm";
}

std::string shapeshift_driver::describe() const
{
    return "shapeshift drill: " + std::to_string(cfg_.messages) + " messages of "
        + std::to_string(cfg_.message_bytes) + " B, WAN corruption burst at "
        + std::to_string(cfg_.burst_at.ns / 1000000) + " ms answered by a runtime "
        + "mode shift";
}

} // namespace mmtp::scenario
