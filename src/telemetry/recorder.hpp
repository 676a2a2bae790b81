// recorder.hpp — measurement helpers shared by tests, examples, benches.
//
// transfer_tracker turns byte-delivery callbacks into flow-completion
// times; message_latency_tracker turns per-datagram timestamps into
// latency distributions; rate_sampler turns cumulative counters into a
// throughput time series.
#pragma once

#include "common/histogram.hpp"
#include "common/units.hpp"
#include "netsim/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace mmtp::telemetry {

/// Tracks one transfer of a known size: feed cumulative delivered bytes,
/// read the flow-completion time once everything landed.
class transfer_tracker {
public:
    transfer_tracker(netsim::engine& eng, std::uint64_t expected_bytes)
        : eng_(eng), expected_(expected_bytes), started_(eng.now())
    {
    }

    void on_delivered(std::uint64_t cumulative_bytes)
    {
        // The counter is cumulative: a reporter that resets (component
        // restart) or reports out of order must never move delivery
        // accounting backwards — or un-complete a finished transfer.
        if (cumulative_bytes < delivered_) regressions_++;
        delivered_ = std::max(delivered_, cumulative_bytes);
        if (!completed_ && delivered_ >= expected_) completed_ = eng_.now();
    }

    bool complete() const { return completed_.has_value(); }
    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t expected() const { return expected_; }
    /// Times on_delivered() saw the cumulative counter go backwards.
    std::uint64_t regressions() const { return regressions_; }

    /// Flow completion time (start of tracking -> last byte).
    std::optional<sim_duration> fct() const
    {
        if (!completed_) return std::nullopt;
        return *completed_ - started_;
    }

    /// Average goodput over the FCT.
    std::optional<data_rate> goodput() const
    {
        const auto t = fct();
        if (!t || t->ns <= 0) return std::nullopt;
        return data_rate{static_cast<std::uint64_t>(
            static_cast<double>(expected_) * 8.0 / t->seconds())};
    }

private:
    netsim::engine& eng_;
    std::uint64_t expected_;
    sim_time started_;
    std::uint64_t delivered_{0};
    std::uint64_t regressions_{0};
    std::optional<sim_time> completed_;
};

/// Source-timestamp → arrival-latency distribution (µs).
class message_latency_tracker {
public:
    explicit message_latency_tracker(netsim::engine& eng) : eng_(eng) {}

    void on_arrival(std::uint64_t source_timestamp_ns)
    {
        const auto lat_ns = eng_.now().ns - static_cast<std::int64_t>(source_timestamp_ns);
        // A timestamp from the future (clock skew, corrupted header)
        // must not enter the distribution as a fake 0 µs sample — that
        // silently drags every percentile down. Count it instead.
        if (lat_ns < 0) {
            negative_latency_++;
            return;
        }
        latency_us_.record(static_cast<std::uint64_t>(lat_ns / 1000));
    }

    const histogram& latency_us() const { return latency_us_; }
    /// Arrivals whose source timestamp was in the future (excluded from
    /// the distribution).
    std::uint64_t negative_latency() const { return negative_latency_; }

private:
    netsim::engine& eng_;
    histogram latency_us_;
    std::uint64_t negative_latency_{0};
};

/// Measures time-to-recover after an injected fault: from the instant
/// the fault fires, a deterministic periodic probe evaluates a health
/// predicate and records the first instant it holds again. Probes ride
/// the simulation engine, so the measurement is byte-identical across
/// runs with the same seed and fault script.
class recovery_tracker {
public:
    using health_fn = std::function<bool()>;

    recovery_tracker(netsim::engine& eng, sim_duration probe_interval)
        : eng_(eng), interval_(probe_interval)
    {
    }

    /// Schedules probing of `healthy` starting at `fault_at` (the fault
    /// instant) and gives up at `deadline` if health never returns.
    void arm(sim_time fault_at, health_fn healthy, sim_time deadline);

    bool recovered() const { return recovered_at_.has_value(); }
    std::optional<sim_duration> time_to_recover() const
    {
        if (!recovered_at_) return std::nullopt;
        return *recovered_at_ - fault_at_;
    }
    std::uint64_t probes() const { return probes_; }
    /// True once probing stopped at the deadline without health returning.
    bool gave_up() const { return gave_up_; }

private:
    void probe();

    netsim::engine& eng_;
    sim_duration interval_;
    health_fn healthy_;
    sim_time fault_at_{sim_time::zero()};
    sim_time deadline_{sim_time::zero()};
    std::optional<sim_time> recovered_at_;
    std::uint64_t probes_{0};
    bool gave_up_{false};
};

/// Periodically samples a cumulative byte counter into Mbps readings.
class rate_sampler {
public:
    using counter_fn = std::function<std::uint64_t()>;

    rate_sampler(netsim::engine& eng, counter_fn counter, sim_duration interval)
        : eng_(eng), counter_(std::move(counter)), interval_(interval)
    {
    }

    /// Starts sampling until `until`.
    void start(sim_time until);

    struct sample {
        sim_time at;
        double mbps;
    };
    const std::vector<sample>& samples() const { return samples_; }

    double peak_mbps() const;
    double mean_mbps() const;

private:
    void tick(sim_time until);

    netsim::engine& eng_;
    counter_fn counter_;
    sim_duration interval_;
    std::uint64_t last_value_{0};
    std::vector<sample> samples_;
};

} // namespace mmtp::telemetry
