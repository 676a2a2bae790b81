// runner.hpp — one scenario through the public path, timed and checked.
//
//   parse    scenario::parse_scenario(text)
//   build    scenario::dsl_driver::prepare()
//   run      scenario::run_context::run()
//   report   scenario::dsl_driver::report(registry) + CSV rendering
//
// The four phases together are the scenario's host time. After them,
// outside the timed span, the run is checked: acceptance from
// dsl_driver::accept(), per-link `tx_packets + dropped_random ==
// dequeued`, and a CRC32C digest of the report and metrics CSV for the
// determinism checks.
#pragma once

#include "spans.hpp"
#include "workloads.hpp"

#include "netsim/scheduler.hpp"

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct phase_times {
    double parse_s{0}, build_s{0}, run_s{0}, report_s{0};
    double scenario_s() const { return parse_s + build_s + run_s + report_s; }
    double setup_s() const { return parse_s + build_s; }
};

struct execution {
    std::string label;
    std::string topology;
    bool lossy{false};
    std::uint32_t shards{1};

    // Host seconds per phase: wall clock, and process CPU time (every
    // thread's, shard workers included). Steal time, while the host runs
    // another guest on this vCPU, counts in wall time but not in CPU time.
    phase_times wall;
    phase_times cpu;
    /// Host slowdown while the run ran (host_probe.hpp), set by the
    /// caller; the end-to-end metrics divide `cpu` by it. 1 = unscaled.
    double slowdown{1};

    // Engine and shard accounting (from the coordinator after run()).
    double dispatch_s{0};      // sum of engine::profile().wall_seconds
    double critical_path_s{0}; // slowest shard per epoch, summed (= dispatch_s unsharded)
    double serial_s{0};        // all shards' dispatch, summed (= dispatch_s unsharded)
    std::uint64_t epochs{0};
    std::uint64_t cross_messages{0};
    std::uint64_t events{0}; // engine events, summed over shards
    std::array<std::uint64_t, mmtp::netsim::task_class_count> events_by_class{};
    std::uint64_t timers_cancelled{0};

    // Summed over every egress link and its queue.
    std::uint64_t link_tx_packets{0};
    std::uint64_t link_drops{0}; // random, oversize, link-down and queue drops
    std::uint64_t link_corrupted{0};
    std::uint64_t queue_enqueued{0};
    std::uint64_t queue_shed{0};

    std::uint64_t allocs_build{0};
    std::uint64_t allocs_run{0};

    // Acceptance, in messages.
    std::uint64_t expected{0};
    std::uint64_t delivered{0};
    std::uint64_t lost{0};       // expected - delivered when the file is not lossy
    std::uint64_t duplicates{0};
    std::uint64_t given_up{0};
    std::uint64_t outstanding_gaps{0};
    /// Broken invariants (empty when the run is clean).
    std::vector<std::string> violations;

    /// CRC32C of report CSV + metrics CSV without engine_* / shard_* rows.
    std::uint32_t digest{0};

    /// Registry rows summed by metric name with labels stripped
    /// ("link_tx_packets"), and per label ("policy_reconfigs|phase=committed").
    std::map<std::string, std::int64_t> counts;
    /// Simulated time to recover after the scripted faults (report rows).
    double sim_recover_ns{0};

    std::int64_t count(const std::string& key) const
    {
        const auto it = counts.find(key);
        return it == counts.end() ? 0 : it->second;
    }
};

/// Runs one input. With a span log the phases are recorded as spans
/// under one `scenario` root tagged `run_id`. Throws std::runtime_error
/// if the text does not parse (inputs are generated, so that is a
/// benchmark bug, not a program failure).
execution execute(const input& in, span_log* log = nullptr, std::uint64_t run_id = 0);

/// The digest of a report CSV plus a metrics CSV, skipping metrics rows
/// whose metric starts with engine_ or shard_ (they legitimately differ
/// across shard counts).
std::uint32_t telemetry_digest(const std::string& report_csv,
                               const std::string& metrics_csv);

} // namespace e2e
