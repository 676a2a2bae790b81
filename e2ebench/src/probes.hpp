// probes.hpp — per-layer cost probes.
//
// Each probe drives one module's public API in isolation, on inputs
// shaped like the workload's scenario (message size, stream count, DTN
// retention, loss rate), and reports nanoseconds per operation. The
// traced benchmark run multiplies each by the scenario run's own count
// of that operation to estimate the layer's share of run() time.
#pragma once

#include <cstdint>

namespace mmtp::scenario {
struct scenario_spec;
}

namespace e2e {

struct probe_shape {
    std::uint32_t message_bytes{512};
    std::uint32_t streams{1};
    /// Datagrams the DTN buffer holds at steady state: its retention
    /// over the aggregate message interval, capped by the message count.
    std::uint64_t window{2000};
    /// Share of datagrams the receiver sees missing (WAN loss).
    double loss{0.0};
};

/// The shape of a parsed scenario's traffic.
probe_shape shape_of(const mmtp::scenario::scenario_spec& spec);

struct probe_result {
    double wire_parse_ns{0};     // wire::parse of one MMTP header
    double wire_serialize_ns{0}; // wire::serialize of one MMTP header
    double element_ns{0};        // programmable_switch::receive, one packet
    double store_ns{0};          // dtn::retransmission_buffer::store
    double lookup_ns{0};         // dtn::retransmission_buffer::fetch
    double receive_ns{0};        // host ingress -> core::receiver delivery
    double event_ns{0};          // netsim::engine schedule + dispatch
};

/// Runs every probe for about `budget_s` host seconds in total.
probe_result run_probes(const probe_shape& shape, double budget_s);

} // namespace e2e
