// Zero-copy packet view: one parse at ingress yields the header offsets
// the whole forwarding path needs, and NAT rewrites happen in place with
// RFC 1624 incremental checksum updates instead of a parse/serialize
// round trip per stage. The view never owns bytes — it aliases a frame
// buffer and is invalidated by anything that reallocates or frees it
// (see DESIGN.md §13 for the discipline).
//
// It is the only way the NAT translates (gateway::L4Translator for
// UDP/TCP, gateway::IcmpTranslator for ICMP, IP-only rewrites). For
// any packet whose wire checksums were correct on arrival the in-place
// result is byte-identical to re-serializing the rewritten packet: the
// serializer emits the unique representative of the checksum's residue
// class in [0, 0xfffe] (IPv4/TCP) or [1, 0xffff] (UDP, where 0 means
// "no checksum"), and the incremental form is closed over exactly those
// ranges. A UDP checksum of 0 stays 0. Packets with incorrect checksums
// keep their badness; no translation step repairs them, except that a
// relayed ICMP error's checksum is recomputed over its rewritten quote.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/addr.hpp"
#include "net/ipv4.hpp"

namespace gatekit::net {

class PacketView {
public:
    /// Parse the IPv4 header (and the UDP/TCP port/checksum geometry of
    /// first fragments) out of `datagram` without copying anything.
    /// Returns nullopt on structural damage — same acceptance rules as
    /// Ipv4Packet::parse. The view aliases `datagram`; the caller keeps
    /// the buffer alive and unmoved for the view's lifetime.
    static std::optional<PacketView> parse(std::span<std::uint8_t> datagram);

    // --- geometry ------------------------------------------------------
    /// IPv4 total length: the datagram's meaningful byte count. Trailing
    /// bytes beyond this (link padding) are not part of the packet.
    std::uint16_t total_len() const { return total_; }
    std::uint8_t protocol() const { return proto_; }
    std::uint8_t ttl() const { return data_[8]; }
    bool is_fragment() const { return fragment_; }

    Ipv4Addr src() const { return src_; }
    Ipv4Addr dst() const { return dst_; }

    /// True when UDP/TCP ports were parsed: not a fragment, transport
    /// header complete, and the UDP length (or TCP data offset) within
    /// the IP payload.
    bool has_l4() const { return has_l4_; }
    std::uint16_t src_port() const { return sport_; }
    std::uint16_t dst_port() const { return dport_; }

    /// TCP flag bits (byte 13 of the TCP header); 0 for non-TCP.
    std::uint8_t tcp_flags() const {
        return proto_ == proto::kTcp && has_l4_ ? data_[ihl_ + 13] : 0;
    }
    /// Everything past the IP header up to total_len(): the ICMP message
    /// of an ICMP datagram, the opaque transport of an unknown protocol.
    std::span<std::uint8_t> payload() const {
        return {data_ + ihl_, static_cast<std::size_t>(total_ - ihl_)};
    }

    // --- in-place mutation (incremental checksum fixup) ----------------
    void set_src(Ipv4Addr a);
    void set_dst(Ipv4Addr a);
    void set_src_port(std::uint16_t p);
    void set_dst_port(std::uint16_t p);
    void decrement_ttl();
    /// Fill the next free slot of a Record Route option with `router`
    /// (RFC 791), as a cooperating router does; no-op without an option
    /// or with a full one. The option's length never changes.
    void record_route(Ipv4Addr router);
    /// Cut the datagram to the end of its UDP datagram when the UDP
    /// length is shorter than the IP payload (the bytes past it belong
    /// to nothing). total_len() shrinks; the frame is the caller's.
    void trim_to_l4();
    /// Recompute the ICMP checksum over payload() after the message
    /// changed (RFC 792); the same value the serializer writes.
    void refresh_icmp_checksum();
    /// Overwrite the datagram with `datagram` (a valid IPv4 datagram no
    /// longer than total_len()) and view that instead.
    void replace(std::span<const std::uint8_t> datagram);

private:
    void ip_fixup16(std::size_t off, std::uint16_t old_w, std::uint16_t new_w);
    void ip_fixup32(std::size_t off, std::uint32_t old_w, std::uint32_t new_w);
    void ip_set8(std::size_t off, std::uint8_t v);
    /// Update the L4 checksum for a changed word that is part of the
    /// TCP/UDP checksum coverage (pseudo-header addresses or ports).
    void l4_fixup16(std::uint16_t old_w, std::uint16_t new_w);
    void l4_fixup32(std::uint32_t old_w, std::uint32_t new_w);

    std::uint16_t read16(std::size_t off) const {
        return static_cast<std::uint16_t>((data_[off] << 8) | data_[off + 1]);
    }
    void write16(std::size_t off, std::uint16_t v) {
        data_[off] = static_cast<std::uint8_t>(v >> 8);
        data_[off + 1] = static_cast<std::uint8_t>(v);
    }

    std::uint8_t* data_ = nullptr;
    std::uint16_t total_ = 0;
    std::uint8_t ihl_ = 0;
    std::uint8_t proto_ = 0;
    bool fragment_ = false;
    bool has_l4_ = false;
    std::uint16_t l4_ck_off_ = 0; ///< absolute offset; 0 = no L4 checksum
    std::uint16_t l4_end_ = 0;    ///< end of the UDP datagram / TCP segment
    Ipv4Addr src_;
    Ipv4Addr dst_;
    std::uint16_t sport_ = 0;
    std::uint16_t dport_ = 0;
};

} // namespace gatekit::net
