// ICMP through a translator, in place on a PacketView like UDP/TCP. Echo
// queries keep their id and are matched back through an EchoTable.
// Errors are attributed by the datagram they quote: a quoted echo query
// through the echo table, a quoted UDP/TCP datagram by the L4Translator
// that owns its binding. Which repairs a relayed quote gets, and whether
// an error is relayed, turned into a RST or tears its binding down, are
// the profile's Table 2 and hardening knobs. NatEngine and CgnEngine
// each own one IcmpTranslator; the policy is in DESIGN.md §13.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "gateway/l4_translator.hpp"

namespace gatekit::gateway {

/// The datagram an ICMP error quotes (RFC 792: its IP header and the
/// first transport bytes), viewed in place inside the error. It parses
/// what Ipv4Packet::parse_prefix parses.
class IcmpQuote {
public:
    enum class Half : std::uint8_t { kSource, kDestination };

    /// The quote inside the ICMP error `v`, or nullopt when it does not
    /// start with an IPv4 header. `v` must carry the 8-byte ICMP header.
    static std::optional<IcmpQuote> of(const net::PacketView& v);

    std::uint8_t protocol() const { return q_[9]; }
    net::Ipv4Addr src() const { return addr(12); }
    net::Ipv4Addr dst() const { return addr(16); }
    /// A non-first fragment: where ports would sit is mid-stream payload.
    bool later_fragment() const { return (read16(6) & 0x1fff) != 0; }
    /// Transport bytes quoted, bounded by the quoted total length.
    std::size_t transport_len() const { return l4_len_; }
    /// Ports (transport_len() >= 4) and echo id (>= 8) of the quote.
    std::uint16_t src_port() const { return read16(ihl_); }
    std::uint16_t dst_port() const { return read16(ihl_ + 2); }
    std::uint16_t echo_id() const { return read16(ihl_ + 4); }
    /// What validate_embedded_binding demands: all 8 transport bytes
    /// and, for UDP, a length field of at least a UDP header.
    bool complete() const;

    /// Rewrite `half`'s address and, if given and quoted, its port. The
    /// quote's IP checksum follows with fix_embedded_ip_checksum; with
    /// fix_embedded_transport the port is written and a quoted non-zero
    /// UDP checksum follows, a computed zero written as 0xffff (a raw 0
    /// reads as "no checksum" to the next NAT of a cascade).
    void rewrite(Half half, net::Ipv4Addr a, std::optional<std::uint16_t> port,
                 const DeviceProfile& p);

private:
    IcmpQuote(std::span<std::uint8_t> q, std::size_t ihl, std::size_t l4_len)
        : q_(q), ihl_(ihl), l4_len_(l4_len) {}
    std::uint16_t read16(std::size_t off) const {
        return static_cast<std::uint16_t>((q_[off] << 8) | q_[off + 1]);
    }
    void write16(std::size_t off, std::uint16_t v) {
        q_[off] = static_cast<std::uint8_t>(v >> 8);
        q_[off + 1] = static_cast<std::uint8_t>(v);
    }
    net::Ipv4Addr addr(std::size_t off) const {
        return net::Ipv4Addr{(std::uint32_t{read16(off)} << 16) |
                             read16(off + 2)};
    }

    std::span<std::uint8_t> q_;
    std::size_t ihl_;
    std::size_t l4_len_;
};

/// ICMP echo bindings. The id crosses unchanged, so a query is known by
/// (internal host, id, remote), and a reply or an error quoting a query
/// is matched on (id, remote); where several queries match, the first in
/// key order wins. An entry lives 60 s from its last query. A full table
/// prunes expired entries and refuses a new query while none are.
class EchoTable {
public:
    explicit EchoTable(std::size_t cap) : cap_(cap) {}

    /// Record or refresh a query; false when the table is full.
    bool add(net::Ipv4Addr internal, std::uint16_t id, net::Ipv4Addr remote,
             sim::TimePoint now);
    /// The live querier of query `id` to `remote`, which a reply from
    /// `remote` or an error quoting the query belongs to; expired
    /// entries met on the way go.
    std::optional<net::Ipv4Addr> querier(std::uint16_t id,
                                         net::Ipv4Addr remote,
                                         sim::TimePoint now);
    std::size_t size() const { return expires_.size(); }
    void clear() { expires_.clear(); }

private:
    struct Key {
        net::Ipv4Addr internal;
        std::uint16_t id = 0;
        net::Ipv4Addr remote;
        friend constexpr auto operator<=>(const Key&, const Key&) = default;
    };
    std::map<Key, sim::TimePoint> expires_;
    std::size_t cap_;
};

class IcmpTranslator {
public:
    /// `echo_cap` bounds the echo table, so a flood of distinct query ids
    /// cannot grow translation state without bound.
    IcmpTranslator(sim::EventLoop& loop, const DeviceProfile& profile,
                   std::size_t echo_cap);

    /// The translator owning an external UDP/TCP port, or nullptr.
    using Owner = std::function<L4Translator*(std::uint16_t external_port)>;

    /// LAN->WAN: an echo request records its query (kNoCapacity when the
    /// table is full), then the source becomes `external` and the hop's
    /// IP steps run; the message crosses untouched. In both directions an
    /// IP fragment is kFragment: past the first, its bytes are not an
    /// ICMP header and must not steer translation state.
    L4Verdict outbound(net::PacketView& v, net::Ipv4Addr external);
    /// WAN->LAN: an echo reply goes to its querier; an error quoting a
    /// datagram from `external` is relayed to the host that sent it
    /// (quote rewritten back, ICMP checksum recomputed) or dropped, per
    /// profile. A quoted UDP/TCP datagram goes to the translator `owner`
    /// names for its source port (L4Translator::inbound_error).
    L4Verdict inbound(net::PacketView& v, net::Ipv4Addr external,
                      const Owner& owner, bool& torn_down);

    /// Whether `v` is an ICMP error message.
    static bool is_error(const net::PacketView& v);

    std::size_t query_count() const { return echo_.size(); }
    /// Forget every echo query.
    void clear() { echo_.clear(); }

private:
    /// Consume one unit of the per-second inbound-error budget; false
    /// once the window's icmp_error_rate_limit is spent.
    bool error_admitted();

    sim::EventLoop& loop_;
    const DeviceProfile& profile_;
    EchoTable echo_;
    // icmp_error_rate_limit window (only advanced while the knob is on).
    sim::TimePoint err_window_{};
    int err_count_ = 0;
};

} // namespace gatekit::gateway
