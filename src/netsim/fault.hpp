// fault.hpp — deterministic fault injection for the simulated network.
//
// The paper argues MMTP can forgo heavy end-to-end machinery because
// capacity-planned paths plus in-network duplication and nearest-buffer
// recovery absorb failures (§5.1, §5.4). Steady-state BER/drop noise
// cannot probe that claim — links must be able to *fail*. The
// fault_scheduler scripts failures as ordinary engine events, so a fault
// scenario is exactly as deterministic and reproducible as a fault-free
// one: same seed, same script, byte-identical run.
//
// Event types:
//   - one-shot link failure / repair        (fail_link_at / repair_link_at)
//   - periodic link flaps                   (flap_link)
//   - corruption bursts: temporary BER      (corruption_burst)
//   - node / element blackout and restore   (blackout_node / restore_node)
//
// Semantics of "down" (see DESIGN.md §8): a packet already handed to the
// serializer completes and is delivered — it is on the wire. Packets
// queued behind it stay queued until repair. New send() calls while down
// are dropped and counted in link_stats::dropped_down. A blacked-out
// node drops all ingress; its egress queues keep draining.
#pragma once

#include "common/units.hpp"
#include "netsim/engine.hpp"
#include "netsim/link.hpp"
#include "netsim/node.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

namespace mmtp::netsim {

struct fault_stats {
    /// Events that actually fired (not merely scheduled).
    std::uint64_t link_downs{0};
    std::uint64_t link_ups{0};
    std::uint64_t corruption_bursts{0};
    std::uint64_t node_blackouts{0};
    std::uint64_t node_restores{0};
    /// Flap cycles scripted via flap_link.
    std::uint64_t flap_cycles_scheduled{0};
};

/// Drives scripted fault events. Links and nodes must outlive the
/// scheduler (they are owned by the network, as usual). Each fault event
/// is scheduled on its *target's* scheduling domain (the link's or
/// node's own engine), so scripts work unchanged under the shard
/// coordinator; shards run in turn on one thread, so the shared stats
/// and hook maps need no locking. Single-shard runs see the exact
/// historical scheduling order — every target resolves to the one engine.
class fault_scheduler {
public:
    explicit fault_scheduler(engine& eng) : eng_(eng) {}

    /// Takes the link down at `at` (no-op if already down then).
    void fail_link_at(link& l, sim_time at);

    /// Brings the link back up at `at`; queued packets resume draining.
    void repair_link_at(link& l, sim_time at);

    /// Scripts `cycles` down/up flaps: down at `first_down`, up after
    /// `down_for`, next cycle after a further `up_for`, and so on.
    void flap_link(link& l, sim_time first_down, sim_duration down_for,
                   sim_duration up_for, unsigned cycles);

    /// Overrides the link's bit-error rate with `ber` during
    /// [at, at + duration), then restores the value it had when the
    /// burst began (so nested scripts compose left to right).
    void corruption_burst(link& l, sim_time at, sim_duration duration, double ber);

    /// Powers the node off at `at`: every packet arriving at it is
    /// dropped (counted in node::blackout_dropped) until restored.
    void blackout_node(node& n, sim_time at);

    /// Powers the node back on at `at`.
    void restore_node(node& n, sim_time at);

    /// Convenience: blackout at `at`, restore after `duration`.
    void blackout_window(node& n, sim_time at, sim_duration duration);

    /// Lifecycle hooks: fired when a blackout/restore event genuinely
    /// transitions the node's power state (a restore of an already-powered
    /// node fires nothing — double-restore is idempotent end to end).
    /// Fired *after* the state change, so a restore hook runs on a
    /// powered node and can send traffic. Use these to model software
    /// dying with the hardware: crash a buffer_service on blackout,
    /// revive it from its archive on restore.
    ///
    /// Re-entrancy: dispatch runs over a snapshot of the hook list, so a
    /// hook may register further hooks or call clear_hooks() on any node
    /// — including its own — mid-fire. Hooks added during dispatch fire
    /// from the *next* matching event; hooks removed during dispatch
    /// still finish the current snapshot.
    void on_blackout(node& n, std::function<void()> fn);
    void on_restore(node& n, std::function<void()> fn);

    /// Drops every blackout and restore hook registered for `n` (safe to
    /// call from inside a firing hook; see the re-entrancy note above).
    void clear_hooks(node& n);

    /// Counters are updated as events fire; read them once the run is
    /// over (scenario reporting does).
    const fault_stats& stats() const { return stats_; }

private:
    void dispatch_hooks(std::map<const node*, std::vector<std::function<void()>>>& hooks,
                        const node& n);

    engine& eng_; // build-time default domain (unused by targeted events)
    fault_stats stats_;
    std::map<const node*, std::vector<std::function<void()>>> blackout_hooks_;
    std::map<const node*, std::vector<std::function<void()>>> restore_hooks_;
};

} // namespace mmtp::netsim
