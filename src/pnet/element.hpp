// element.hpp — programmable network element (switch / FPGA NIC).
//
// A programmable_switch is a forwarding node that runs a pipeline of
// header-only stages over every packet. The pipeline abstraction is
// deliberately constrained to what Tofino-class P4 hardware supports:
// integer header-field arithmetic, register arrays, counters, packet
// cloning and synthesized small control packets — no payload access, no
// floating point, no unbounded loops.
#pragma once

#include "common/units.hpp"
#include "netsim/engine.hpp"
#include "netsim/node.hpp"
#include "pnet/context.hpp"

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mmtp::pnet {

/// The per-element pipeline counters (P4 counters), indexed at compile
/// time. counter_names holds their report names in this order.
enum class counter_id : std::uint8_t {
    mode_transitions,
    mode_shifts,
    epochs_retired,
    backpressure_engagements,
    backpressure_signals,
    backpressure_suppressed,
    backpressure_escalations,
    aged_packets,
    aged_drops,
    deadline_notifications,
    duplicated,
    subscriptions,
};

inline constexpr std::array<std::string_view, 12> counter_names{
    "mode_transitions",        "mode_shifts",           "epochs_retired",
    "backpressure_engagements", "backpressure_signals",  "backpressure_suppressed",
    "backpressure_escalations", "aged_packets",          "aged_drops",
    "deadline_notifications",  "duplicated",            "subscriptions",
};
static_assert(counter_names.size() == static_cast<std::size_t>(counter_id::subscriptions) + 1,
              "one name per counter_id");

/// Per-element mutable state available to stages (P4 registers/counters).
class element_state {
public:
    /// Handle of a register array, valid for the element_state that
    /// created it.
    using register_id = std::size_t;

    /// Creates (or resizes, keeping values) a named register array of
    /// u64 cells and returns its handle; stages look the name up once
    /// and index by handle on the packet path.
    register_id create_register(std::string_view name, std::size_t cells);
    /// Access a cell; throws std::out_of_range for a handle this state
    /// did not create or an index out of range.
    std::uint64_t& reg(register_id id, std::size_t index = 0)
    {
        return registers_.at(id).at(index);
    }
    /// Access a cell by name; the register must exist and the index be
    /// in range.
    std::uint64_t& reg(std::string_view name, std::size_t index = 0);

    void bump(counter_id c, std::uint64_t by = 1)
    {
        counters_[static_cast<std::size_t>(c)] += by;
    }
    std::uint64_t counter(counter_id c) const { return counters_[static_cast<std::size_t>(c)]; }

    wire::ipv4_addr element_addr{0};
    /// Interned flight-recorder site id for this element — stages read it
    /// to label the hop records they emit (0 = unnamed).
    std::uint32_t trace_site{0};

private:
    std::vector<std::string> register_names_;
    std::vector<std::vector<std::uint64_t>> registers_;
    std::array<std::uint64_t, counter_names.size()> counters_{};
};

/// A match-action stage. Stages run in order; each may rewrite headers,
/// drop, clone, or emit control packets via the context.
class pipeline_stage {
public:
    virtual ~pipeline_stage() = default;

    /// Called once when the stage is installed on an element (add_stage):
    /// a stage creates its registers here and keeps their handles. A
    /// stage serves the one element it is attached to; code that calls
    /// process() directly attaches the stage to its element_state first.
    virtual void attach(element_state& /*state*/) {}

    /// Runs the stage on one packet. The switch never hands a stage a
    /// packet an earlier stage dropped.
    virtual void process(packet_context& ctx, element_state& state) = 0;

    virtual std::string name() const = 0;
};

/// Hardware profile: fixed pipeline latency and a tag for reports.
/// Values approximate the devices used in the paper's pilot (§5.4).
struct element_profile {
    std::string kind;
    sim_duration pipeline_latency{sim_duration{400}};
};

/// EdgeCore Tofino2-class switch: sub-microsecond pipeline.
element_profile tofino2_profile();
/// AMD Alveo (U280/U55C) smartNIC-class element: a little slower, but in
/// the pilot it is the element that fronts DTN buffers.
element_profile alveo_profile();

struct switch_stats {
    std::uint64_t forwarded{0};
    std::uint64_t dropped_corrupted{0};
    std::uint64_t dropped_malformed{0};
    std::uint64_t dropped_by_pipeline{0};
    std::uint64_t dropped_unroutable{0};
    std::uint64_t clones{0};
    std::uint64_t emissions{0};
};

class programmable_switch : public netsim::node {
public:
    programmable_switch(netsim::engine& eng, std::string name, wire::ipv4_addr addr,
                        wire::mac_addr mac, element_profile profile = tofino2_profile());

    /// One packet arriving now: a burst of one.
    void receive(netsim::packet&& p, unsigned ingress_port) override;

    /// The pipeline: runs the whole burst through each stage before
    /// advancing (stage-major). Each packet is processed at its own
    /// arrival stamp (ctx.now = pkt.stamp) and leaves via link::send_at
    /// one pipeline latency later.
    void receive_burst(netsim::packet* pkts, unsigned n, unsigned ingress_port) override;

    /// Appends a stage (attaching it to this element's state); runs
    /// after all previously added stages.
    void add_stage(std::shared_ptr<pipeline_stage> stage);

    element_state& state() { return state_; }
    const element_state& state() const { return state_; }
    const switch_stats& stats() const { return stats_; }
    const element_profile& profile() const { return profile_; }

    /// Port used for MMTP-over-L2 frames (DAQ networks are trees toward
    /// the first DTN, so a single upstream port suffices).
    void set_l2_uplink(unsigned port) { l2_uplink_ = port; }

    /// Supplies fresh packet ids for clones/emissions.
    void set_id_source(netsim::packet_id_source* ids) { ids_ = ids; }

private:
    /// Egress toward `dst` at virtual time `now` + pipeline latency via
    /// link::send_at (one deferred event when the egress link is not in
    /// burst mode).
    void forward_at(sim_time now, netsim::packet&& p, wire::ipv4_addr dst);
    /// Emissions / drop verdict / deparse / clones / primary forward for
    /// one packet of a burst, at ctx.now.
    void finalize_burst(packet_context& ctx);

    element_profile profile_;
    element_state state_;
    std::vector<std::shared_ptr<pipeline_stage>> stages_;
    switch_stats stats_;
    unsigned l2_uplink_{netsim::no_port};
    netsim::packet_id_source* ids_{nullptr};
    /// Scratch contexts for receive_burst, one per packet of the largest
    /// burst seen so far, reused (their vectors keep their capacity), so
    /// only a larger burst than any before allocates.
    std::vector<packet_context> ctx_scratch_;
};

} // namespace mmtp::pnet
