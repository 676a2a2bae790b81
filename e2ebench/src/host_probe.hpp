// host_probe.hpp — a fixed reference workload that tracks host speed.
//
// The host this benchmark runs on shares its cores, caches and memory
// with other tenants. Its speed drifts by up to 2x over tens of seconds
// to minutes, in step for every process on it, and process CPU time
// does not see that drift (it is not steal). So between scenarios the
// timed loop runs short bursts of a fixed reference workload, shaped
// like the simulator's inner loop: dependent loads through a 1 MiB
// table, hashed flow lookups and a packet-sized allocation with header
// bytes written and summed. Its code lives here, not in src/, so it is
// the same on every commit: a change to the simulator moves the
// scenario times and not the reference's. Its packets come from a pool
// of its own, not from the process heap: heap allocations here would
// take over work the scenarios' heap leaves behind, such as glibc
// consolidating the last testbed's freed chunks, and hide it.
//
// A burst's slowdown is its median timed chunk over nominal_s. Each
// scenario run's CPU time is divided by the mean slowdown of the bursts
// just before and just after it (rates multiplied), so the end-to-end
// times read as CPU seconds on a host that runs the reference at
// nominal_s. Pairing each run with its own bursts follows drift inside
// a run; one slowdown for the whole run did not, and left 2-3x the
// spread.
//
// The drift is per CPU: bursts pinned to each of the four vCPUs in turn
// were uncorrelated with each other. A one-shard run stays on the CPU
// the loop runs on, and is scaled by a burst there. A sharded run's
// workers spread over every CPU, and are scaled by the mean of a burst
// on each (sweep()). On soak-sharded the run's CPU time followed the
// own-CPU burst at a log-log slope of 0.2, and scaling by it doubled the
// spread of unscaled CPU time; it followed the all-CPU mean at 0.7.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <unordered_map>
#include <vector>

namespace e2e {

class host_probe {
public:
    /// The chunk time that counts as slowdown 1: the fast-minute median
    /// on the 4-vCPU Xeon host the benchmark was tuned on.
    static constexpr double nominal_s = 0.6e-3;
    /// Wall seconds between bursts in the timed loop.
    static constexpr double interval_s = 0.25;

    host_probe();

    /// One burst: a chunk that refills the caches the last scenario
    /// evicted (not kept), then timed chunks. Returns the burst's
    /// slowdown: its median timed chunk over nominal_s.
    double burst();

    struct sweep_result {
        double own;  // the burst on the CPU the thread started on
        double mean; // the mean over every CPU it may run on
    };
    /// One burst on each CPU the calling thread may run on, pinning it
    /// to each in turn and to its starting CPU last, then restoring its
    /// affinity. Falls back to one unpinned burst if pinning fails.
    sweep_result sweep();

    /// Median of every timed chunk so far over nominal_s; 0 before the
    /// first burst.
    double slowdown() const;
    std::size_t chunks() const { return samples_.size(); }

private:
    double chunk(); // thread CPU seconds

    std::vector<std::uint32_t> next_; // one random cycle
    std::unordered_map<std::uint64_t, std::uint64_t> flows_;
    std::pmr::unsynchronized_pool_resource packets_{std::pmr::pool_options{0, 2048}};
    std::uint32_t at_{0};
    std::uint64_t rng_{99};
    std::uint64_t sink_{0};
    std::vector<double> samples_;
};

} // namespace e2e
