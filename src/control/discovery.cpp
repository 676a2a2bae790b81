#include "control/discovery.hpp"

namespace mmtp::control {

domain_directory::domain_directory(netsim::engine& eng, directory_config cfg)
    : eng_(eng), cfg_(cfg)
{
}

void domain_directory::publish(resource_record r)
{
    r.domain = cfg_.domain;
    advertised_resource adv;
    adv.record = std::move(r);
    adv.version = next_version_++;
    adv.path_length = 0;
    table_[adv.record.addr] = adv;
    refreshed_[adv.record.addr] = eng_.now();
}

void domain_directory::publish_advert(const wire::buffer_advert_body& advert)
{
    resource_record r;
    r.kind = resource_kind::retransmission_buffer;
    r.addr = advert.buffer_addr;
    r.capacity_bytes = advert.capacity_bytes;
    r.retention = sim_duration{static_cast<std::int64_t>(advert.retention_ms) * 1000000};
    r.name = "advertised-buffer";
    publish(std::move(r));
}

void domain_directory::withdraw(wire::ipv4_addr addr)
{
    auto it = table_.find(addr);
    if (it == table_.end()) return;
    it->second.withdrawn = true;
    it->second.version = next_version_++;
    stats_.withdrawals++;
}

void domain_directory::peer(domain_directory& a, domain_directory& b)
{
    a.peers_.push_back(&b);
    b.peers_.push_back(&a);
    a.schedule_gossip();
    b.schedule_gossip();
}

void domain_directory::schedule_gossip()
{
    if (gossip_scheduled_) return;
    gossip_scheduled_ = true;
    eng_.schedule_in(cfg_.gossip_interval, [this] {
        gossip_scheduled_ = false;
        expire_stale();
        stats_.gossip_rounds++;
        for (auto* p : peers_) gossip_to(*p);
        if (!peers_.empty()) schedule_gossip();
    });
}

void domain_directory::expire_stale()
{
    const auto now = eng_.now();
    for (auto& [addr, adv] : table_) {
        if (adv.withdrawn) continue;
        if (adv.record.domain == cfg_.domain) {
            // local entries self-refresh
            refreshed_[addr] = now;
            continue;
        }
        auto it = refreshed_.find(addr);
        if (it != refreshed_.end() && (now - it->second).ns > cfg_.holddown.ns) {
            adv.withdrawn = true;
            stats_.expired++;
        }
    }
}

void domain_directory::gossip_to(domain_directory& peer)
{
    std::vector<advertised_resource> updates;
    for (const auto& [addr, adv] : table_) {
        if (adv.path_length >= cfg_.max_path_length) continue; // radius damping
        auto forwarded = adv;
        forwarded.path_length++;
        updates.push_back(std::move(forwarded));
    }
    if (updates.empty()) return;
    stats_.updates_sent += updates.size();
    peer.receive(updates);
}

void domain_directory::receive(const std::vector<advertised_resource>& updates)
{
    const auto now = eng_.now();
    for (const auto& upd : updates) {
        // never accept a foreign view of our own resources (split horizon)
        if (upd.record.domain == cfg_.domain) continue;
        stats_.updates_received++;

        auto it = table_.find(upd.record.addr);
        const bool is_new = it == table_.end();
        // Prefer: newer version; tie-break on shorter path (stability).
        // A re-announcement of the version we already hold is a
        // keepalive: it refreshes the holddown timer but changes nothing.
        if (!is_new) {
            const auto& cur = it->second;
            if (upd.version < cur.version) continue;
            if (upd.version == cur.version) {
                if (!cur.withdrawn && !upd.withdrawn) refreshed_[upd.record.addr] = now;
                if (upd.path_length >= cur.path_length) continue;
            }
        }
        const bool became_visible = (is_new || it->second.withdrawn) && !upd.withdrawn;
        table_[upd.record.addr] = upd;
        refreshed_[upd.record.addr] = now;
        if (became_visible && on_learned_) on_learned_(upd.record);
    }
}

resource_map domain_directory::snapshot() const
{
    resource_map out;
    // local entries first so find() prefers them on duplicate addresses
    for (const auto& [addr, adv] : table_) {
        if (adv.withdrawn) continue;
        if (adv.record.domain == cfg_.domain) out.add(adv.record);
    }
    for (const auto& [addr, adv] : table_) {
        if (adv.withdrawn) continue;
        if (adv.record.domain != cfg_.domain) out.add(adv.record);
    }
    return out;
}

} // namespace mmtp::control
