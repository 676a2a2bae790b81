// build.hpp — convenience builders for complete MMTP header stacks.
//
// Endpoints and network elements both need "eth + ipv4 + mmtp" and
// "eth + mmtp" byte sequences; these helpers keep that assembly in one
// place so header layout changes don't ripple through the codebase.
#pragma once

#include "common/small_bytes.hpp"
#include "wire/header.hpp"
#include "wire/lower.hpp"

#include <cstdint>

namespace mmtp::wire {

/// The largest stack built here — Ethernet + IPv4 + an MMTP header with
/// every feature — must fit a packet's inline header buffer, or every
/// shape-shifted packet would spill to the heap.
static_assert(small_bytes::inline_capacity
                  >= eth_header_size + ipv4_header_size + max_header_size,
              "packet headers must fit small_bytes' inline capacity");

/// Serialized Ethernet + IPv4(proto 253) + MMTP header stack, built in
/// the returned buffer's inline storage (no heap allocation).
/// `total_payload` is only used to fill the IPv4 length field.
small_bytes build_mmtp_over_ipv4(mac_addr src_mac, ipv4_addr src, ipv4_addr dst,
                                 const header& h, std::size_t total_payload,
                                 std::uint8_t dscp = 0);

/// Serialized Ethernet(ethertype 0x88B5) + MMTP header stack (Req 1).
small_bytes build_mmtp_over_l2(mac_addr src_mac, mac_addr dst_mac, const header& h);

} // namespace mmtp::wire
