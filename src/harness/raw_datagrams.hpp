// Hand-built IPv4 datagrams for the batteries that inject traffic below
// the test hosts' sockets (Host::send_raw) from addresses and ports no
// socket owns: serialized with valid checksums, the default TTL and no
// IP options.
#pragma once

#include "net/ipv4.hpp"
#include "net/tcp_header.hpp"
#include "net/udp.hpp"

namespace gatekit::harness {

inline net::Bytes raw_ip(net::Ipv4Addr src, net::Ipv4Addr dst,
                         std::uint8_t protocol, net::Bytes payload) {
    net::Ipv4Packet p;
    p.h.protocol = protocol;
    p.h.src = src;
    p.h.dst = dst;
    p.payload = std::move(payload);
    return p.serialize();
}

/// A one-byte UDP datagram.
inline net::Bytes raw_udp(net::Ipv4Addr src, std::uint16_t sport,
                          net::Ipv4Addr dst, std::uint16_t dport) {
    net::UdpDatagram d;
    d.src_port = sport;
    d.dst_port = dport;
    d.payload = {0x5a};
    return raw_ip(src, dst, net::proto::kUdp, d.serialize(src, dst));
}

/// A bare TCP segment with the given flags (seq 0x1000; ack 0x2000 when
/// the ACK flag is set).
inline net::Bytes raw_tcp(net::Ipv4Addr src, std::uint16_t sport,
                          net::Ipv4Addr dst, std::uint16_t dport, bool syn,
                          bool ack, bool rst) {
    net::TcpSegment seg;
    seg.src_port = sport;
    seg.dst_port = dport;
    seg.seq = 0x1000;
    seg.ack = ack ? 0x2000 : 0;
    seg.flags.syn = syn;
    seg.flags.ack = ack;
    seg.flags.rst = rst;
    return raw_ip(src, dst, net::proto::kTcp, seg.serialize(src, dst));
}

} // namespace gatekit::harness
