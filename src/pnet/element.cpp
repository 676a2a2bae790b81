#include "pnet/element.hpp"

#include "common/trace.hpp"
#include "netsim/link.hpp"

#include <stdexcept>

namespace mmtp::pnet {

element_state::register_id element_state::create_register(std::string_view name,
                                                          std::size_t cells)
{
    register_id id = 0;
    while (id < register_names_.size() && register_names_[id] != name) ++id;
    if (id == register_names_.size()) {
        register_names_.emplace_back(name);
        registers_.emplace_back();
    }
    registers_[id].resize(cells, 0);
    return id;
}

std::uint64_t& element_state::reg(std::string_view name, std::size_t index)
{
    for (register_id id = 0; id < register_names_.size(); ++id)
        if (register_names_[id] == name) return reg(id, index);
    throw std::out_of_range("pnet register not created: " + std::string(name));
}

element_profile tofino2_profile()
{
    return element_profile{"tofino2", sim_duration{400}}; // ~400 ns pipeline
}

element_profile alveo_profile()
{
    return element_profile{"alveo", sim_duration{1500}}; // ~1.5 us FPGA datapath
}

programmable_switch::programmable_switch(netsim::engine& eng, std::string nm,
                                         wire::ipv4_addr addr, wire::mac_addr mc,
                                         element_profile profile)
    : node(eng, std::move(nm), addr, mc), profile_(std::move(profile))
{
    state_.element_addr = addr;
}

void programmable_switch::add_stage(std::shared_ptr<pipeline_stage> stage)
{
    stage->attach(state_);
    stages_.push_back(std::move(stage));
}

namespace {

/// Clears verdicts and parse results on a reused scratch context.
/// clear() (not reassignment) keeps clones/emissions capacity, so a
/// recycled context never re-allocates.
void reset_context(packet_context& ctx)
{
    ctx.ip.reset();
    ctx.mmtp.reset();
    ctx.mmtp_over_l2 = false;
    ctx.l4_offset = 0;
    ctx.headers_dirty = false;
    ctx.drop = false;
    ctx.dst_override.reset();
    ctx.clones.clear();
    ctx.emissions.clear();
}

} // namespace

void programmable_switch::receive(netsim::packet&& p, unsigned ingress_port)
{
    p.stamp = eng_.now();
    receive_burst(&p, 1, ingress_port);
}

void programmable_switch::receive_burst(netsim::packet* pkts, unsigned n, unsigned ingress_port)
{
    if (ctx_scratch_.size() < n) ctx_scratch_.resize(n);
    packet_context* ctxs = ctx_scratch_.data();

    // Admission + parse, per packet at its own arrival stamp.
    unsigned m = 0;
    for (unsigned i = 0; i < n; ++i) {
        netsim::packet& p = pkts[i];
        if (p.corrupted) { // store-and-forward element: FCS fails, frame dropped here
            stats_.dropped_corrupted++;
            trace::emit(p.stamp, state_.trace_site, trace::hop::sw_drop, p.id, 0,
                        trace::reason::corrupted);
            continue;
        }
        if (p.hops > 64) { // loop backstop
            stats_.dropped_malformed++;
            trace::emit(p.stamp, state_.trace_site, trace::hop::sw_drop, p.id, 0,
                        trace::reason::malformed);
            continue;
        }
        packet_context& ctx = ctxs[m];
        reset_context(ctx);
        ctx.pkt = std::move(p);
        ctx.ingress_port = ingress_port;
        ctx.now = ctx.pkt.stamp;
        if (!parse_context(ctx)) {
            stats_.dropped_malformed++;
            trace::emit(ctx.now, state_.trace_site, trace::hop::sw_drop, ctx.pkt.id, 0,
                        trace::reason::malformed);
            continue;
        }
        m++;
    }

    // Stage-major: the whole burst crosses each stage before the next.
    // A dropped packet skips every later stage (first drop wins).
    for (const auto& stage : stages_)
        for (unsigned i = 0; i < m; ++i)
            if (!ctxs[i].drop) stage->process(ctxs[i], state_);

    for (unsigned i = 0; i < m; ++i)
        finalize_burst(ctxs[i]);
}

void programmable_switch::finalize_burst(packet_context& ctx)
{
    const sim_time now = ctx.now;

    // Control messages synthesized by stages leave first (they are tiny
    // and time-critical: NAKs, backpressure, deadline notifications).
    for (auto& e : ctx.emissions) {
        stats_.emissions++;
        if (ids_) e.pkt.id = ids_->next();
        forward_at(now, std::move(e.pkt), e.dst);
    }

    if (ctx.drop) {
        stats_.dropped_by_pipeline++;
        trace::emit(now, state_.trace_site, trace::hop::sw_drop, ctx.pkt.id, 0,
                    trace::reason::pipeline);
        return;
    }

    deparse_context(ctx);

    // Clones (in-network duplication toward subscribers, Fig. 3 ⑥), each
    // with its IPv4 destination rewritten.
    for (const auto dst : ctx.clones) {
        netsim::packet copy = ctx.pkt; // deep copy of headers/payload
        if (ids_) copy.id = ids_->next();
        packet_context cc;
        cc.pkt = std::move(copy);
        if (parse_context(cc) && cc.ip) {
            cc.headers_dirty = true;
            cc.dst_override = dst;
            deparse_context(cc);
            stats_.clones++;
            // Binding record: ties the clone's fresh id to its parent's.
            trace::emit(now, state_.trace_site, trace::hop::sw_clone, cc.pkt.id, ctx.pkt.id);
            forward_at(now, std::move(cc.pkt), dst);
        }
    }

    if (ctx.mmtp_over_l2) {
        // DAQ-network L2 segment: one upstream port toward the first DTN.
        if (l2_uplink_ == netsim::no_port || l2_uplink_ >= port_count()) {
            stats_.dropped_unroutable++;
            trace::emit(now, state_.trace_site, trace::hop::sw_drop, ctx.pkt.id, 0,
                        trace::reason::unroutable);
            return;
        }
        stats_.forwarded++;
        egress(l2_uplink_).send_at(now + profile_.pipeline_latency, std::move(ctx.pkt));
        return;
    }
    if (!ctx.ip) {
        stats_.dropped_unroutable++;
        trace::emit(now, state_.trace_site, trace::hop::sw_drop, ctx.pkt.id, 0,
                    trace::reason::unroutable);
        return;
    }
    const auto dst = ctx.dst_override.value_or(ctx.ip->dst);
    forward_at(now, std::move(ctx.pkt), dst);
}

void programmable_switch::forward_at(sim_time now, netsim::packet&& p, wire::ipv4_addr dst)
{
    const unsigned port = route(dst);
    if (port == netsim::no_port || port >= port_count()) {
        stats_.dropped_unroutable++;
        trace::emit(now, state_.trace_site, trace::hop::sw_drop, p.id, 0,
                    trace::reason::unroutable);
        return;
    }
    stats_.forwarded++;
    egress(port).send_at(now + profile_.pipeline_latency, std::move(p));
}

} // namespace mmtp::pnet
