// scheduler.hpp — the vocabulary shared by every event loop: handler
// classes for profiling and the cancellable-timer handle. The event loop
// itself is netsim::engine (netsim/engine.hpp); this header stays small
// so code that only names task classes or holds timer handles need not
// pull in the engine.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mmtp::netsim {

/// Coarse handler classes for engine profiling. Callers may tag each
/// event; untagged events count as `generic`. The tag rides in padding of
/// the heap key, so tagging costs nothing in size or ordering. The tag
/// also picks the scheduling structure inside `engine`: timer/protocol/
/// control events go through the timing wheel, the rest through the heap.
enum class task_class : std::uint8_t {
    generic = 0,
    timer,        // telemetry probes, samplers, scripted scenario steps
    link_tx,      // link serializer-free events
    link_arrival, // packet arrival at the far end of a link
    pipeline,     // programmable-element pipeline egress
    protocol,     // MMTP/TCP/UDP endpoint timers and pumps
    control,      // fault scheduler, control-plane events
};
constexpr std::size_t task_class_count = 7;

const char* task_class_name(task_class c);

constexpr std::uint32_t scheduler_no_slot = 0xffffffffu;

/// Token for a timer scheduled with schedule_cancellable_in().
/// Value-semantic; default-constructed means inactive. A handle goes
/// stale once its timer fires or is cancelled — cancel() detects
/// staleness via the generation counter and becomes a no-op.
struct timer_handle {
    std::uint32_t slot{scheduler_no_slot};
    std::uint32_t gen{0};
    bool active() const { return slot != scheduler_no_slot; }
};

} // namespace mmtp::netsim
