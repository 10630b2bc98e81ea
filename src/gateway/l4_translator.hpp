// The one UDP/TCP translator. Binding lookup or creation, the UDP
// refresh policy and the TCP state machine (SYN transitory expiry,
// established promotion, FIN linger, RST removal) exist here once, and
// every rewrite happens in place on a PacketView with incremental
// checksum updates. NatEngine drives it with a calibrated device's
// profile and binding tables; CgnEngine with the all-correct profile and
// the tables of one subscriber's port block. The policy for packets that
// need more than an address/port rewrite is in DESIGN.md §13.
#pragma once

#include <optional>
#include <string>

#include "gateway/binding_table.hpp"
#include "gateway/profile.hpp"
#include "net/ipv4.hpp"
#include "net/packet_view.hpp"

namespace gatekit::gateway {

/// Outcome of one UDP/TCP translation. Only kForwarded touched the bytes.
enum class L4Verdict : std::uint8_t {
    kForwarded,    ///< rewritten; forward the view's total_len() bytes
    kNotOurs,      ///< inbound: no binding matches (maybe host-local)
    kMalformed,    ///< no usable UDP/TCP header: dropped, counted nowhere
    kFragment,     ///< IP fragment: dropped by policy
    kNoCapacity,   ///< outbound: the binding table refused a new binding
    kSynDropped,   ///< WanSynPolicy::Drop swallowed an unsolicited SYN
    kSynTarpitted, ///< WanSynPolicy::Tarpit swallowed one
    kStrayDropped, ///< strict handshake tracking refused a segment
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

    /// Register the UDP timeout-policy counters under `device`.
    void bind_observability(obs::MetricsRegistry& reg,
                            const std::string& device);

private:
    sim::Duration udp_timeout(const Binding& b, bool inbound_packet,
                              std::uint16_t service_port);
    void refresh_tcp(Binding& b);
    /// TTL, Record Route and UDP trim, per profile; then the TCP close
    /// rules (RST removes the binding, both FINs start the linger).
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

/// How the Ipv4Packet entry points reach the translator: serialize once,
/// let `translate` rewrite a view of the bytes in place, and return them
/// cut to the view's total length when it forwarded.
template <typename Translate>
std::optional<net::Bytes> translate_serialized(const net::Ipv4Packet& pkt,
                                               Translate&& translate) {
    net::Bytes bytes = pkt.serialize();
    auto v = net::PacketView::parse(bytes);
    if (!v || !translate(*v)) return std::nullopt;
    bytes.resize(v->total_len());
    return bytes;
}

} // namespace gatekit::gateway
