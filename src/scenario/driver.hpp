// driver.hpp — the common scenario-driver interface.
//
// Every scenario in this directory follows the same life cycle: build a
// testbed (topology + control plane + scripted traffic), drain the
// simulation engine, then report deterministic telemetry. Before this
// interface each example re-implemented that skeleton; `driver` names
// it once:
//
//   describe()   one-line banner for logs and example output
//   build()      constructs the testbed and scripts its events; returns
//                a run_context naming the simulation run() will drain.
//                (Scenarios own their network — and therefore their
//                engines — so build *produces* the context rather than
//                receiving one.)
//   run()        builds on first call, then drains the simulation
//   report(reg)  registers the scenario's standard probes into `reg`
//                and returns the headline table (requires run())
//
// run_example() is the shared example main(): banner, run, report,
// metrics snapshot, and an optional same-seed rerun that checks the
// telemetry bytes are identical.
#pragma once

#include "scenario/chaos.hpp"
#include "scenario/overload.hpp"
#include "scenario/pilot.hpp"
#include "scenario/shapeshift.hpp"
#include "scenario/soak.hpp"
#include "scenario/today.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"

#include <memory>
#include <optional>
#include <string>

namespace mmtp::scenario {

/// What build() hands back: the simulation to drain. Always the
/// scenario network's shard coordinator — a thin pass-through around the
/// single engine in unsharded runs, the epoch-synchronized engine fleet
/// under --shards=N. Value-semantic handle; the driver's testbed owns
/// the network.
class run_context {
public:
    run_context() = default;
    explicit run_context(netsim::network& net) : coord_(&net.coordinator()) {}
    explicit run_context(netsim::shard_coordinator& c) : coord_(&c) {}

    bool valid() const { return coord_ != nullptr; }
    netsim::shard_coordinator& coordinator() { return *coord_; }
    /// Shard 0's engine (the only one when unsharded).
    netsim::engine& sim() { return coord_->shard(0); }
    /// Drains the simulation; returns events executed.
    std::uint64_t run() { return coord_->run(); }

private:
    netsim::shard_coordinator* coord_{nullptr};
};

class driver {
public:
    virtual ~driver() = default;

    /// One-line human description of the scenario.
    virtual std::string describe() const = 0;

    /// Constructs the testbed and scripts its traffic/faults; returns
    /// the run_context that run() drains. Idempotence is the caller's
    /// job — use prepare()/run() unless you need the context directly.
    virtual run_context build() = 0;

    /// Builds exactly once (so a testbed can be customised before run).
    void prepare()
    {
        if (!ctx_.valid()) ctx_ = build();
    }

    /// Runs the scenario to completion (builds first if needed).
    void run()
    {
        prepare();
        ctx_.run();
    }

    bool built() const { return ctx_.valid(); }

    /// The simulation handle (valid after prepare()).
    run_context& context() { return ctx_; }

    /// Registers the scenario's standard probes into `reg` and returns
    /// the headline report table. Requires run().
    virtual telemetry::table report(telemetry::metrics_registry& reg) = 0;

    /// Generic acceptance numbers, post-run: what was offered, what
    /// arrived, and the failure counters the campaign invariants gate
    /// on. Wholeness semantics follow the drill's own summary.
    struct acceptance {
        std::uint64_t expected{0};
        std::uint64_t delivered{0};
        std::uint64_t duplicates{0};
        std::uint64_t given_up{0};
        std::uint64_t outstanding_gaps{0};
        bool whole{false};
    };
    /// Requires run().
    virtual acceptance accept() = 0;

    /// The testbed's network, for structural invariants (per-link stats
    /// reconciliation). Valid after build().
    virtual netsim::network& network() = 0;

protected:
    /// Acceptance of a drill whose receiver sequences the stream: whole
    /// means every offered message arrived, none given up, no gap left.
    static acceptance sequenced(std::uint64_t expected, const core::receiver_stats& rx,
                                std::uint64_t outstanding_gaps);

    run_context ctx_;
};

/// Shared example skeleton: prints describe(), runs, prints the report
/// table and the metrics snapshot. When `rerun` names a second, freshly
/// constructed driver of the same configuration, it is run too and the
/// telemetry bytes compared — the determinism check every drill example
/// used to hand-roll. Returns 0 on success (and byte-identical reruns).
int run_example(driver& d, driver* rerun = nullptr);

// --- concrete drivers ----------------------------------------------------

/// The §5.4 pilot: ICEBERG trigger records through the Fig. 4 testbed.
class pilot_driver : public driver {
public:
    struct options {
        pilot_config pilot{};
        std::uint64_t records{1000};
        std::uint32_t frames_per_record{10};
    };
    pilot_driver();
    explicit pilot_driver(options opt);

    std::string describe() const override;
    run_context build() override;
    telemetry::table report(telemetry::metrics_registry& reg) override;
    acceptance accept() override;
    netsim::network& network() override;

    pilot_testbed& testbed() { return *tb_; }

private:
    options opt_;
    std::unique_ptr<pilot_testbed> tb_;
    std::uint64_t records_driven_{0}; // records the ICEBERG source produced
};

/// The status-quo pipeline of Fig. 2 (UDP ingest stage).
class today_driver : public driver {
public:
    struct options {
        today_config today{};
        std::uint32_t message_bytes{5000};
        std::uint64_t messages{200};
        sim_duration message_interval{sim_duration{10000}}; // 10 us
    };
    today_driver();
    explicit today_driver(options opt);

    std::string describe() const override;
    run_context build() override;
    telemetry::table report(telemetry::metrics_registry& reg) override;
    acceptance accept() override;
    netsim::network& network() override;

    today_testbed& testbed() { return *tb_; }

private:
    options opt_;
    std::unique_ptr<today_testbed> tb_;
    std::uint64_t bytes_scheduled_{0}; // UDP payload bytes scheduled at the sensor
};

/// The four fault drills share one driver shape: make_X builds the
/// testbed, summarize_X summarizes it once after the run, and
/// register_X_metrics registers its probes (the same list the testbed's
/// own registry holds). Each drill adds only its describe() banner.
template <class Config, class Testbed, class Result,
          std::unique_ptr<Testbed> (*make)(const Config&),
          Result (*summarize)(Testbed&),
          void (*register_metrics)(telemetry::metrics_registry&, Testbed&)>
class drill_driver : public driver {
public:
    explicit drill_driver(Config cfg = {}) : cfg_(cfg) {}

    run_context build() override
    {
        tb_ = make(cfg_);
        return run_context(tb_->net);
    }

    telemetry::table report(telemetry::metrics_registry& reg) override
    {
        register_metrics(reg, *tb_);
        return result().report;
    }

    acceptance accept() override
    {
        return sequenced(result().messages_sent, result().rx, tb_->rx->outstanding_gaps());
    }

    netsim::network& network() override { return tb_->net; }

    Testbed& testbed() { return *tb_; }
    /// Summarized once after run(); report() fills it.
    const Result& result()
    {
        if (!result_) result_ = summarize(*tb_);
        return *result_;
    }

protected:
    Config cfg_;

private:
    std::unique_ptr<Testbed> tb_;
    std::optional<Result> result_;
};

/// Coordinated WAN + buffer failure mid-transfer (chaos drill).
class chaos_driver : public drill_driver<chaos_config, chaos_testbed, chaos_result,
                                         make_chaos, summarize_chaos,
                                         register_chaos_metrics> {
public:
    using drill_driver::drill_driver;
    std::string describe() const override;
};

/// 2× sustained offered load with every overload-control layer engaged.
class overload_driver
    : public drill_driver<overload_config, overload_testbed, overload_result,
                          make_overload, summarize_overload, register_overload_metrics> {
public:
    using drill_driver::drill_driver;
    std::string describe() const override;
};

/// Facility-scale soak: five concurrent experiments over shared spans
/// and DTNs under a fault-and-overload storm.
class soak_driver : public drill_driver<soak_config, soak_testbed, soak_result, make_soak,
                                        summarize_soak, register_soak_metrics> {
public:
    using drill_driver::drill_driver;
    std::string describe() const override;
};

/// Mid-run WAN degradation answered by a runtime mode shift.
class shapeshift_driver
    : public drill_driver<shapeshift_config, shapeshift_testbed, shapeshift_result,
                          make_shapeshift, summarize_shapeshift,
                          register_shapeshift_metrics> {
public:
    using drill_driver::drill_driver;
    std::string describe() const override;
};

} // namespace mmtp::scenario
