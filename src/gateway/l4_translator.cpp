#include "gateway/l4_translator.hpp"

#include "gateway/icmp_translator.hpp"
#include "net/tcp_header.hpp"
#include "util/assert.hpp"

namespace gatekit::gateway {

namespace {
// TCP flag bits as PacketView::tcp_flags() reports them.
constexpr std::uint8_t kFin = 0x01;
constexpr std::uint8_t kSyn = 0x02;
constexpr std::uint8_t kRst = 0x04;
constexpr std::uint8_t kAck = 0x10;
} // namespace

L4Translator::L4Translator(sim::EventLoop& loop, const DeviceProfile& profile,
                           BindingTable& udp, BindingTable& tcp)
    : loop_(loop), profile_(profile), udp_(udp), tcp_(tcp) {}

void L4Translator::bind_observability(obs::MetricsRegistry& reg,
                                      const std::string& device) {
    obs::Labels labels{{"device", device}};
    m_to_per_service_ = reg.counter("nat.timeout.per_service", labels);
    m_to_inbound_ = reg.counter("nat.timeout.inbound_refresh", labels);
    m_to_outbound_ = reg.counter("nat.timeout.outbound_refresh", labels);
    m_to_initial_ = reg.counter("nat.timeout.initial", labels);
    // Distribution of the UDP timeout actually granted per refresh, in
    // ns — the policy counters say which rule fired, the sketch says
    // what the population of granted lifetimes looks like.
    m_to_granted_ns_ = reg.log_histogram("nat.timeout.granted_ns", labels);
}

std::optional<L4Verdict> L4Translator::screen(const net::PacketView& v) {
    if (v.is_fragment()) return L4Verdict::kFragment;
    if (!v.has_l4()) return L4Verdict::kMalformed;
    return std::nullopt;
}

sim::Duration L4Translator::udp_timeout(const Binding& b, bool inbound_packet,
                                        std::uint16_t service_port) {
    const auto granted = [this](sim::Duration d) {
        obs::observe(m_to_granted_ns_, static_cast<double>(d.count()));
        return d;
    };
    auto it = profile_.udp.per_service.find(service_port);
    if (it != profile_.udp.per_service.end()) {
        obs::inc(m_to_per_service_);
        return granted(it->second);
    }
    if (inbound_packet) {
        obs::inc(m_to_inbound_);
        return granted(profile_.udp.inbound_refresh);
    }
    if (b.confirmed) {
        obs::inc(m_to_outbound_);
        return granted(profile_.udp.outbound_refresh);
    }
    obs::inc(m_to_initial_);
    return granted(profile_.udp.initial);
}

void L4Translator::refresh_tcp(Binding& b) {
    tcp_.refresh(b, b.established ? profile_.tcp_established_timeout
                                  : profile_.tcp_transitory_timeout);
}

L4Verdict L4Translator::outbound(net::PacketView& v, net::Ipv4Addr external) {
    if (const auto bad = screen(v)) return *bad;
    const bool udp = v.protocol() == net::proto::kUdp;
    const FlowKey key{v.protocol(),
                      {v.src(), v.src_port()},
                      {v.dst(), v.dst_port()}};
    Binding* b = (udp ? udp_ : tcp_).find_or_create_outbound(key);
    if (b == nullptr) return L4Verdict::kNoCapacity;
    const std::uint8_t flags = v.tcp_flags();
    ++b->packets_out;
    if (udp) {
        if (profile_.udp.outbound_refreshes || b->packets_out == 1)
            udp_.refresh(*b, udp_timeout(*b, false, key.remote.port));
    } else {
        if ((flags & (kSyn | kAck)) == kSyn)
            tcp_.set_expiry(*b,
                            loop_.now() + profile_.tcp_transitory_timeout);
        if (b->packets_in > 0 && (flags & kSyn) == 0) b->established = true;
        refresh_tcp(*b);
        if ((flags & kFin) != 0) b->fin_out = true;
    }
    v.set_src(external);
    v.set_src_port(b->external_port);
    finish(v, external, *b, flags);
    return L4Verdict::kForwarded;
}

L4Verdict L4Translator::inbound(net::PacketView& v, net::Ipv4Addr external) {
    if (v.is_fragment()) return L4Verdict::kFragment;
    if (!v.has_l4()) return L4Verdict::kNotOurs;
    const bool udp = v.protocol() == net::proto::kUdp;
    const std::uint8_t flags = v.tcp_flags();
    // Unsolicited-SYN policy: Drop/Tarpit devices swallow any inbound
    // plain SYN before it can touch binding state or draw a gateway-
    // local RST, and track the handshake strictly: until a binding has
    // seen an inbound SYN-ACK (or is established), nothing else from the
    // WAN is accepted on it. Forward (every calibrated device and the
    // CGN) takes neither branch.
    const bool strict =
        !udp && profile_.wan_syn_policy != WanSynPolicy::Forward;
    if (strict && (flags & (kSyn | kAck)) == kSyn)
        return profile_.wan_syn_policy == WanSynPolicy::Tarpit
                   ? L4Verdict::kSynTarpitted
                   : L4Verdict::kSynDropped;
    Binding* b = (udp ? udp_ : tcp_).find_inbound(v.dst_port(),
                                                  {v.src(), v.src_port()});
    if (b == nullptr) return L4Verdict::kNotOurs;
    if (strict) {
        const bool synack = (flags & (kSyn | kAck)) == (kSyn | kAck);
        if (!b->established && !b->synack_in && !synack)
            return L4Verdict::kStrayDropped;
        if (synack) b->synack_in = true;
    }
    ++b->packets_in;
    if (udp) {
        const bool first_inbound = !b->confirmed;
        b->confirmed = true;
        if (profile_.udp.inbound_refreshes || first_inbound)
            udp_.refresh(*b, udp_timeout(*b, true, b->key.remote.port));
    } else {
        // Mirror of the outbound rule: only non-SYN traffic past the
        // handshake promotes. A retransmitted SYN followed by the
        // SYN-ACK must not jump to the established timeout.
        if (b->packets_out > 1 && (flags & kSyn) == 0) b->established = true;
        refresh_tcp(*b);
        if ((flags & kFin) != 0) b->fin_in = true;
    }
    v.set_dst(b->key.internal.addr);
    v.set_dst_port(b->key.internal.port);
    finish(v, external, *b, flags);
    return L4Verdict::kForwarded;
}

L4Verdict L4Translator::hairpin(net::PacketView& v, net::Ipv4Addr external,
                                net::Endpoint target) {
    GK_EXPECTS(v.has_l4() && v.protocol() == net::proto::kUdp);
    const FlowKey key{net::proto::kUdp,
                      {v.src(), v.src_port()},
                      {external, v.dst_port()}};
    Binding* sender = udp_.find_or_create_outbound(key);
    if (sender == nullptr) return L4Verdict::kNoCapacity;
    ++sender->packets_out;
    udp_.refresh(*sender, udp_timeout(*sender, false, key.remote.port));
    v.set_src(external);
    v.set_src_port(sender->external_port);
    v.set_dst(target.addr);
    v.set_dst_port(target.port);
    finish(v, external, *sender, 0);
    return L4Verdict::kForwarded;
}

L4Verdict L4Translator::inbound_error(net::PacketView& v, IcmpQuote& q,
                                      IcmpKind kind, net::Ipv4Addr external,
                                      bool& torn_down) {
    if (profile_.validate_embedded_binding && !q.complete())
        return L4Verdict::kQuoteRejected;
    const bool tcp = q.protocol() == net::proto::kTcp;
    BindingTable& table = tcp ? tcp_ : udp_;
    const net::Ipv4Addr remote = q.dst();
    Binding* b = table.find_inbound(q.src_port(), {remote, q.dst_port()});
    if (b == nullptr) return L4Verdict::kNotOurs;
    const FlowKey key = b->key;
    const bool relay =
        (tcp ? profile_.icmp_tcp : profile_.icmp_udp).translates(kind);
    if (relay && tcp && profile_.tcp_icmp_becomes_rst) {
        // ls2: instead of relaying the error, fabricate a TCP RST toward
        // the internal host in its place. The RST is invalid: sequence
        // and ack numbers are zero, so a correct TCP stack ignores it.
        net::TcpSegment rst;
        rst.src_port = key.remote.port;
        rst.dst_port = key.internal.port;
        rst.flags.rst = true;
        net::Ipv4Packet out;
        out.h.protocol = net::proto::kTcp;
        out.h.src = remote; // the remote the flow was talking to
        out.h.dst = key.internal.addr;
        out.h.ttl = 64;
        out.payload = rst.serialize(out.h.src, out.h.dst);
        v.replace(out.serialize());
    } else if (relay) {
        q.rewrite(IcmpQuote::Half::kSource, key.internal.addr,
                  key.internal.port, profile_);
        v.refresh_icmp_checksum();
        v.set_dst(key.internal.addr);
        forward_ip(v, profile_, external);
    }
    // Conntrack-style teardown posture: an accepted hard error purges
    // the binding it names, whether or not the device also relays the
    // error into the LAN. This is the ReDAN off-path DoS surface.
    torn_down = profile_.icmp_error_teardown &&
                (kind == IcmpKind::PortUnreachable ||
                 kind == IcmpKind::HostUnreachable ||
                 kind == IcmpKind::ProtoUnreachable);
    if (torn_down) table.remove(key);
    return relay ? L4Verdict::kForwarded : L4Verdict::kErrorDropped;
}

void forward_ip(net::PacketView& v, const DeviceProfile& p,
                net::Ipv4Addr external) {
    if (p.decrement_ttl) v.decrement_ttl();
    if (p.honor_record_route) v.record_route(external);
}

void L4Translator::finish(net::PacketView& v, net::Ipv4Addr external,
                          Binding& b, std::uint8_t tcp_flags) {
    forward_ip(v, profile_, external);
    v.trim_to_l4();
    if (v.protocol() != net::proto::kTcp) return;
    if ((tcp_flags & kRst) != 0) {
        const FlowKey key = b.key;
        tcp_.remove(key); // b invalid past this point
    } else if (b.fin_in && b.fin_out) {
        tcp_.set_expiry(b, loop_.now() + profile_.tcp_fin_linger);
    }
}

} // namespace gatekit::gateway
