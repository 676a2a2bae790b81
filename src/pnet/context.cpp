#include "pnet/context.hpp"

#include "common/bytes.hpp"

namespace mmtp::pnet {

bool parse_context(packet_context& ctx)
{
    byte_reader r(ctx.pkt.headers);
    const auto eth = wire::parse_eth(r);
    if (!eth) return false;
    ctx.eth = *eth;

    if (eth->ethertype == wire::ethertype_mmtp) {
        // MMTP directly over L2 (Req 1).
        const auto h = wire::parse(std::span<const std::uint8_t>(ctx.pkt.headers)
                                       .subspan(r.position()));
        if (!h) return false;
        ctx.mmtp = h;
        ctx.mmtp_over_l2 = true;
        ctx.l4_offset = r.position();
        return true;
    }

    if (eth->ethertype == wire::ethertype_ipv4) {
        const auto ip = wire::parse_ipv4(r);
        if (!ip) return false;
        ctx.ip = ip;
        ctx.l4_offset = r.position();
        if (ip->protocol == wire::ipproto_mmtp) {
            const auto h = wire::parse(std::span<const std::uint8_t>(ctx.pkt.headers)
                                           .subspan(r.position()));
            if (!h) return false;
            ctx.mmtp = h;
        }
        return true;
    }

    // Unknown ethertype: forwarded opaque.
    ctx.l4_offset = r.position();
    return true;
}

void deparse_context(packet_context& ctx)
{
    if (!ctx.headers_dirty) return;

    if (ctx.dst_override && ctx.ip) ctx.ip->dst = *ctx.dst_override;

    auto& headers = ctx.pkt.headers;
    if (ctx.mmtp) {
        // Every byte is re-serialized from the (possibly rewritten)
        // structs, straight into the packet's buffer; MMTP datagrams keep
        // their payload in pkt.payload / virtual_payload, so headers end
        // with the MMTP header.
        headers.clear();
        byte_writer w(headers);
        serialize(ctx.eth, w);
        if (ctx.ip) serialize(*ctx.ip, w);
        serialize(*ctx.mmtp, w);
        return;
    }

    // Preserve the L4 header bytes of protocols we do not parse.
    small_bytes out;
    byte_writer w(out);
    serialize(ctx.eth, w);
    if (ctx.ip) serialize(*ctx.ip, w);
    if (ctx.l4_offset < headers.size()) w.bytes(headers.view().subspan(ctx.l4_offset));
    headers = std::move(out);
}

} // namespace mmtp::pnet
