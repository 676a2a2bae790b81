// buffer.hpp — DTN retransmission buffer store.
//
// The pilot's DTN 1 "represents the processing and buffering stage in the
// DAQ network" (Fig. 4): it holds recently forwarded datagrams so that
// downstream receivers can recover loss from a *nearby* buffer instead of
// the source (§5.3's generalization of X.25 hop-by-hop behaviour, "closer
// to short-term publish-subscribe"). Entries age out by retention time
// and total capacity, newest kept.
//
// Storage: one stream per (experiment, epoch), holding its live entries
// in a ring sorted by sequence. Sequences are dense and rise, so a
// lookup indexes `sequence - front` directly and falls back to a binary
// search only across gaps; a store appends. Streams hold live entries
// only — a sequence jump costs one slot, not the gap — and a stream is
// dropped once empty. Eviction follows a FIFO of keys in store order;
// a same-key store replaces the entry in place and leaves its old FIFO
// slot behind, which evicts the replacement when it reaches the front.
#pragma once

#include "common/ring_buffer.hpp"
#include "common/units.hpp"
#include "wire/ids.hpp"

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

namespace mmtp::dtn {

struct buffered_datagram {
    std::uint64_t sequence{0};
    std::uint16_t epoch{0};
    wire::experiment_id experiment{0};
    std::uint64_t timestamp_ns{0};
    std::uint32_t size_bytes{0};
    std::vector<std::uint8_t> inline_payload;
    sim_time stored_at{sim_time::zero()};
};

struct buffer_config {
    std::uint64_t capacity_bytes{512ull * 1024 * 1024};
    sim_duration retention{sim_duration{5000000000}}; // 5 s
};

struct buffer_stats {
    std::uint64_t stored{0};
    std::uint64_t evicted_capacity{0};
    std::uint64_t evicted_retention{0};
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t peak_bytes{0};
};

/// Keyed by (experiment, epoch, sequence); per-experiment streams.
class retransmission_buffer {
public:
    explicit retransmission_buffer(buffer_config cfg = {}) : cfg_(cfg) {}

    /// Stores a datagram (replacing any same-key entry), then evicts by
    /// retention and capacity.
    void store(buffered_datagram d, sim_time now);

    /// Looks up one datagram; counts hit/miss.
    std::optional<buffered_datagram> fetch(wire::experiment_id experiment,
                                           std::uint16_t epoch, std::uint64_t sequence,
                                           sim_time now);

    /// All stored datagrams in [first, last] for (experiment, epoch).
    std::vector<buffered_datagram> fetch_range(wire::experiment_id experiment,
                                               std::uint16_t epoch, std::uint64_t first,
                                               std::uint64_t last, sim_time now);

    /// Applies retention/capacity eviction now — lets occupancy-watermark
    /// pollers observe decay between stores.
    void sweep(sim_time now) { evict(now); }

    std::uint64_t bytes_used() const { return bytes_; }
    std::size_t entries() const { return entries_; }
    const buffer_stats& stats() const { return stats_; }
    const buffer_config& config() const { return cfg_; }

private:
    struct key {
        wire::experiment_id experiment;
        std::uint16_t epoch;
        std::uint64_t sequence;
    };
    /// One (experiment, epoch) stream's live entries, ascending sequence.
    using stream = ring_buffer<buffered_datagram>;
    using streams = std::map<std::pair<wire::experiment_id, std::uint16_t>, stream>;

    /// Position of the first entry of `s` whose sequence is >= `sequence`.
    static std::size_t lower_bound(const stream& s, std::uint64_t sequence);
    /// The stream holding `k` and its position there; streams_.end()
    /// when `k` is not stored.
    std::pair<streams::iterator, std::size_t> find(const key& k);
    void evict(sim_time now);

    buffer_config cfg_;
    streams streams_;       // dropped once empty
    ring_buffer<key> fifo_; // store order, for eviction
    std::size_t entries_{0};
    std::uint64_t bytes_{0};
    buffer_stats stats_;
};

} // namespace mmtp::dtn
