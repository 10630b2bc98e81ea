// The one UDP/TCP translator. Binding lookup or creation, the UDP
// refresh policy and the TCP state machine (SYN transitory expiry,
// established promotion, FIN linger, RST removal) exist here once, and
// every rewrite happens in place on a PacketView with incremental
// checksum updates. An inbound ICMP error quoting one of its flows is
// handled here too, by the translator that owns the flow's binding.
// NatEngine drives it with a calibrated device's profile and binding
// tables; CgnEngine with the all-correct profile and the tables of one
// subscriber's port block. The policy for packets that need more than an
// address/port rewrite is in DESIGN.md §13.
#pragma once

#include <optional>
#include <string>

#include "gateway/binding_table.hpp"
#include "gateway/profile.hpp"
#include "net/ipv4.hpp"
#include "net/packet_view.hpp"

namespace gatekit::gateway {

class IcmpQuote;

/// Outcome of one translation. Only kForwarded touched the bytes.
enum class L4Verdict : std::uint8_t {
    kForwarded,     ///< rewritten; forward the view's total_len() bytes
    kNotOurs,       ///< inbound: no binding matches (maybe host-local)
    kMalformed,     ///< nothing usable to translate: dropped, uncounted
    kFragment,      ///< IP fragment: dropped by policy
    kPolicy,        ///< the profile drops this protocol
    kNoCapacity,    ///< outbound: a binding or query table is full
    kSynDropped,    ///< WanSynPolicy::Drop swallowed an unsolicited SYN
    kSynTarpitted,  ///< WanSynPolicy::Tarpit swallowed one
    kStrayDropped,  ///< strict handshake tracking refused a segment
    kErrorDropped,  ///< an ICMP error the device does not relay
    kRateLimited,   ///< over the icmp_error_rate_limit budget
    kQuoteRejected, ///< validate_embedded_binding refused the quote
};

class L4Translator {
public:
    L4Translator(sim::EventLoop& loop, const DeviceProfile& profile,
                 BindingTable& udp, BindingTable& tcp);

    /// Why `v` must not be translated in either direction, or nullopt:
    /// a fragment (a non-first one carries payload where the ports would
    /// sit) or a UDP/TCP header that does not parse.
    static std::optional<L4Verdict> screen(const net::PacketView& v);

    /// LAN->WAN: find or create the flow's binding, then rewrite the
    /// source to `external` and the binding's port.
    L4Verdict outbound(net::PacketView& v, net::Ipv4Addr external);
    /// WAN->LAN: match the destination port and remote endpoint to a
    /// binding, then rewrite the destination to its internal endpoint.
    /// An unparseable header matches nothing (kNotOurs). `external` is
    /// what a Record Route slot records.
    L4Verdict inbound(net::PacketView& v, net::Ipv4Addr external);
    /// UDP to the device's own external address: the sender gets its own
    /// binding, as if the datagram had gone out and come back, and the
    /// datagram turns around to `target`. `v` must pass screen().
    L4Verdict hairpin(net::PacketView& v, net::Ipv4Addr external,
                      net::Endpoint target);
    /// WAN->LAN ICMP error `v` whose quote `q` is a UDP/TCP datagram
    /// this translator sent: relay it to the flow's internal host with
    /// the quote rewritten back, turn it into a RST, or drop it, per
    /// profile. `torn_down` is set when the error purged the binding.
    L4Verdict inbound_error(net::PacketView& v, IcmpQuote& q, IcmpKind kind,
                            net::Ipv4Addr external, bool& torn_down);

    /// Register the UDP timeout-policy counters under `device`.
    void bind_observability(obs::MetricsRegistry& reg,
                            const std::string& device);

private:
    sim::Duration udp_timeout(const Binding& b, bool inbound_packet,
                              std::uint16_t service_port);
    void refresh_tcp(Binding& b);
    /// forward_ip and the UDP trim; then the TCP close rules (RST
    /// removes the binding, both FINs start the linger).
    void finish(net::PacketView& v, net::Ipv4Addr external, Binding& b,
                std::uint8_t tcp_flags);

    sim::EventLoop& loop_;
    const DeviceProfile& profile_;
    BindingTable& udp_;
    BindingTable& tcp_;

    // Instrumentation; all nullptr until bind_observability.
    obs::Counter* m_to_per_service_ = nullptr;
    obs::Counter* m_to_inbound_ = nullptr;
    obs::Counter* m_to_outbound_ = nullptr;
    obs::Counter* m_to_initial_ = nullptr;
    obs::LogHistogram* m_to_granted_ns_ = nullptr;
};

/// The IP steps of one hop through a translator, per profile: TTL and
/// Record Route (recording `external`).
void forward_ip(net::PacketView& v, const DeviceProfile& p,
                net::Ipv4Addr external);

} // namespace gatekit::gateway
