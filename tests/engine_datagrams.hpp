// Datagram-level drivers for the NAT engines' in-place entry points, for
// tests that build packets as net::Ipv4Packet: serialize once, let the
// engine rewrite a PacketView of the bytes, and return them cut to the
// view's total length when it forwarded. One template serves NatEngine
// and CgnEngine alike. The engines' TTL handling lives in the gateways'
// frame hooks, so a TTL-1 datagram is translated here like any other.
#pragma once

#include <optional>

#include "gateway/l4_translator.hpp"
#include "net/ipv4.hpp"
#include "net/packet_view.hpp"

namespace gatekit::testutil {

template <typename Translate>
std::optional<net::Bytes> translate_serialized(const net::Ipv4Packet& pkt,
                                               Translate&& translate) {
    net::Bytes bytes = pkt.serialize();
    auto v = net::PacketView::parse(bytes);
    if (!v || !translate(*v)) return std::nullopt;
    bytes.resize(v->total_len());
    return bytes;
}

/// LAN->WAN (subscriber->ISP): the translated datagram, or nullopt when
/// the engine dropped it.
template <typename Engine>
std::optional<net::Bytes> outbound(Engine& engine,
                                   const net::Ipv4Packet& pkt) {
    return translate_serialized(pkt, [&](net::PacketView& v) {
        return engine.outbound(v) == gateway::L4Verdict::kForwarded;
    });
}

/// WAN->LAN. `handled` is set when the packet was the engine's (even if
/// dropped); false means it would reach the gateway's own stack.
template <typename Engine>
std::optional<net::Bytes> inbound(Engine& engine, const net::Ipv4Packet& pkt,
                                  bool& handled) {
    handled = false;
    return translate_serialized(pkt, [&](net::PacketView& v) {
        const gateway::L4Verdict verdict = engine.inbound(v);
        handled = verdict != gateway::L4Verdict::kNotOurs;
        return verdict == gateway::L4Verdict::kForwarded;
    });
}

/// A datagram to the engine's own external address, turned around
/// toward the target's internal endpoint.
template <typename Engine>
std::optional<net::Bytes> hairpin(Engine& engine, const net::Ipv4Packet& pkt) {
    return translate_serialized(
        pkt, [&](net::PacketView& v) { return engine.hairpin(v); });
}

} // namespace gatekit::testutil
