// network.hpp — topology container and static routing.
//
// Owns the shard coordinator (and through it every per-domain engine),
// all nodes and the deterministic RNG tree. Builders create nodes
// (addresses auto-assigned from 10.0.0.0/8), connect them with duplex
// links, and finally call compute_routes() to install shortest-path
// forwarding state at every node.
//
// Domains: set_domain(d) assigns subsequently created nodes to network
// domain `d`; domains map onto shards modulo the shard count, so a
// topology annotated with domains runs unchanged at any --shards=N.
// A link whose endpoints land on different shards becomes a partition
// cut: its arrivals route through the coordinator's epoch mailboxes,
// and its propagation delay must be positive (it bounds the lookahead).
#pragma once

#include "common/rng.hpp"
#include "netsim/engine.hpp"
#include "netsim/host.hpp"
#include "netsim/link.hpp"
#include "netsim/node.hpp"
#include "netsim/shard.hpp"

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mmtp::netsim {

class network {
public:
    explicit network(std::uint64_t seed = 1, unsigned shards = 1)
        : root_rng_(seed), coord_(std::make_unique<shard_coordinator>(shards))
    {
        // Per-shard id sources with disjoint 48-bit ranges: ids stay
        // unique without cross-thread coordination, and shard 0 counts
        // from zero so single-shard runs see the historical sequence.
        for (unsigned i = 0; i < coord_->shard_count(); ++i)
            ids_.push_back(std::make_unique<packet_id_source>(
                static_cast<std::uint64_t>(i) << 48));
    }

    /// Shard 0's engine — the only engine in single-shard runs. Sharded
    /// callers that need a specific domain use engine_for().
    engine& sim() { return coord_->shard(0); }

    shard_coordinator& coordinator() { return *coord_; }
    unsigned shard_count() const { return coord_->shard_count(); }

    /// Barrier-synchronous engine for cross-domain observers (shard 0's
    /// engine when single-sharded — see shard_coordinator).
    engine& control_plane() { return coord_->control_plane(); }

    /// Domain `d`'s engine (domains fold onto shards modulo the count).
    engine& engine_for(unsigned domain)
    {
        return coord_->shard(domain % coord_->shard_count());
    }

    /// Shard-0 id source (the historical single source).
    packet_id_source& ids() { return *ids_[0]; }
    /// Domain `d`'s id source — disjoint ranges per shard; identical to
    /// ids() when running single-sharded.
    packet_id_source& ids_for(unsigned domain)
    {
        return *ids_[domain % coord_->shard_count()];
    }

    rng fork_rng() { return root_rng_.fork(); }

    /// Network domain for subsequently created nodes (default 0).
    void set_domain(unsigned d) { domain_ = d; }
    unsigned domain() const { return domain_; }
    /// Shard a node was placed on (0 for unknown nodes).
    unsigned shard_of(const node& n) const
    {
        auto it = shard_by_node_.find(&n);
        return it == shard_by_node_.end() ? 0u : it->second;
    }

    /// Creates a node of type T (host, pnet::programmable_switch, ...)
    /// in the current domain. T's constructor must be
    /// (engine&, string, ipv4_addr, mac_addr, ...).
    template <typename T, typename... Args>
    T& emplace(const std::string& name, Args&&... args)
    {
        const unsigned shard = domain_ % coord_->shard_count();
        auto n = std::make_unique<T>(coord_->shard(shard), name, next_addr(), next_mac(),
                                     std::forward<Args>(args)...);
        T& ref = *n;
        by_name_[name] = n.get();
        by_addr_[ref.address()] = n.get();
        shard_by_node_[n.get()] = shard;
        nodes_.push_back(std::move(n));
        return ref;
    }

    host& add_host(const std::string& name) { return emplace<host>(name); }

    /// Connects a → b with one link (a's new egress port). Returns the
    /// port number at `a`. An optional custom egress queue can be given.
    /// Throws std::invalid_argument when the endpoints live on different
    /// shards and cfg.propagation is not positive — cut links carry the
    /// conservative lookahead and must have real delay.
    unsigned connect_simplex(node& a, node& b, const link_config& cfg,
                             std::unique_ptr<queue_disc> q = nullptr);

    /// Duplex connection with symmetric config; returns {port@a, port@b}.
    std::pair<unsigned, unsigned> connect(node& a, node& b, const link_config& cfg);

    /// Installs shortest-path (hop count) routes at every node for every
    /// node address. Ties break toward the lower-numbered port.
    void compute_routes();

    node* find(const std::string& name);
    node* find_addr(wire::ipv4_addr a);
    const std::vector<std::unique_ptr<node>>& nodes() const { return nodes_; }

private:
    wire::ipv4_addr next_addr() { return 0x0a000000u + (++addr_counter_); } // 10.0.0.x
    wire::mac_addr next_mac() { return 0x020000000000ull + (++addr_counter_); }

    struct edge {
        node* from;
        node* to;
        unsigned from_port;
    };

    rng root_rng_;
    std::unique_ptr<shard_coordinator> coord_;
    std::vector<std::unique_ptr<packet_id_source>> ids_;
    unsigned domain_{0};
    std::uint32_t addr_counter_{0};
    std::vector<std::unique_ptr<node>> nodes_;
    std::unordered_map<std::string, node*> by_name_;
    std::unordered_map<wire::ipv4_addr, node*> by_addr_;
    std::unordered_map<const node*, unsigned> shard_by_node_;
    std::vector<edge> edges_;
};

} // namespace mmtp::netsim
