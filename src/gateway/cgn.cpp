#include "gateway/cgn.hpp"

#include <optional>

#include "util/assert.hpp"

namespace gatekit::gateway {

namespace {
// Echo-query cap: a carrier box multiplexes many subscribers' pings.
constexpr std::size_t kMaxIcmpQueries = 4096;
} // namespace

CgnEngine::CgnEngine(sim::EventLoop& loop, CgnConfig cfg)
    : loop_(loop), cfg_(cfg),
      profile_(make_profile(cfg_.pool_begin, cfg_.pool_end)),
      icmp_(loop, profile_, kMaxIcmpQueries) {
    GK_EXPECTS(cfg_.pool_begin >= 1 && cfg_.pool_begin <= cfg_.pool_end);
    if (cfg_.block_size != 0) GK_EXPECTS(num_blocks() >= 1);
}

int CgnEngine::num_blocks() const {
    if (cfg_.block_size == 0) return 0;
    return (cfg_.pool_end - cfg_.pool_begin + 1) / cfg_.block_size;
}

void CgnEngine::set_addresses(net::Ipv4Addr access_addr,
                              int access_prefix_len,
                              net::Ipv4Addr external_addr) {
    GK_EXPECTS(!external_addr.is_unspecified());
    access_addr_ = access_addr;
    access_prefix_len_ = access_prefix_len;
    external_addr_ = external_addr;
    blocks_.clear();
    blocks_.resize(cfg_.block_size == 0
                       ? 1u
                       : static_cast<std::size_t>(num_blocks()));
    icmp_.clear();
    stats_ = Stats{};
}

std::optional<CgnEngine::BlockInfo>
CgnEngine::block_of(net::Ipv4Addr subscriber) const {
    GK_EXPECTS(configured());
    if (cfg_.block_size == 0) return std::nullopt;
    const auto n = static_cast<std::uint32_t>(num_blocks());
    const std::uint32_t host_mask =
        access_prefix_len_ == 0
            ? ~std::uint32_t{0}
            : ~(~std::uint32_t{0} << (32 - access_prefix_len_));
    const std::uint32_t host = subscriber.value() & host_mask;
    BlockInfo info;
    info.index = static_cast<int>(host % n);
    info.begin = static_cast<std::uint16_t>(
        cfg_.pool_begin + info.index * cfg_.block_size);
    info.end = static_cast<std::uint16_t>(info.begin + cfg_.block_size - 1);
    return info;
}

DeviceProfile CgnEngine::make_profile(std::uint16_t begin,
                                      std::uint16_t end) const {
    DeviceProfile p;
    p.tag = "cgn";
    p.vendor = "carrier";
    p.model = "cgn";
    p.firmware = "rfc6888";
    p.udp = cfg_.udp;
    p.tcp_established_timeout = cfg_.tcp_established_timeout;
    p.tcp_transitory_timeout = cfg_.tcp_transitory_timeout;
    p.tcp_fin_linger = cfg_.tcp_fin_linger;
    const int span = end - begin + 1;
    const int cap = cfg_.max_bindings > 0 ? cfg_.max_bindings : span;
    p.max_tcp_bindings = cap;
    p.max_udp_bindings = cap;
    // Preserving the subscriber's source port is impossible — it lies
    // outside the assigned block — so EIM is paired pooling (RFC 6888
    // APP) and EDM is a fresh sequential port per flow.
    p.port_allocation = cfg_.eim ? PortAllocation::ReusePooled
                                 : PortAllocation::Sequential;
    p.port_quarantine = sim::Duration{0};
    p.pool_begin = begin;
    p.pool_end = end;
    p.icmp_tcp = IcmpTranslationSet::all();
    p.icmp_udp = IcmpTranslationSet::all();
    p.hairpin = cfg_.hairpin;
    p.decrement_ttl = true;
    GK_EXPECTS(p.validate().empty());
    return p;
}

CgnEngine::Slice* CgnEngine::slice_for_subscriber(net::Ipv4Addr src) {
    const auto info = block_of(src); // nullopt: the one shared pool
    auto& s = blocks_[info ? static_cast<std::size_t>(info->index) : 0];
    if (!s)
        s = std::make_unique<Slice>(
            loop_, info ? src : net::Ipv4Addr{},
            info ? make_profile(info->begin, info->end) : profile_);
    if (info && s->owner != src) {
        // Deterministic NAT refusal: the block is statically someone
        // else's. An over-subscribed modulus surfaces as exhaustion for
        // the colliding address, never as port leakage across blocks.
        ++stats_.block_collisions;
        return nullptr;
    }
    return s.get();
}

CgnEngine::Slice* CgnEngine::find_slice(net::Ipv4Addr subscriber) {
    const auto info = block_of(subscriber);
    Slice* s = blocks_[info ? static_cast<std::size_t>(info->index) : 0].get();
    return s != nullptr && (!info || s->owner == subscriber) ? s : nullptr;
}

CgnEngine::Slice* CgnEngine::slice_for_port(std::uint16_t external_port) {
    if (external_port < cfg_.pool_begin || external_port > cfg_.pool_end)
        return nullptr;
    if (cfg_.block_size == 0) return blocks_[0].get();
    const auto idx = static_cast<std::size_t>(
        (external_port - cfg_.pool_begin) / cfg_.block_size);
    // Remainder ports past the last full block are never allocated.
    if (idx >= blocks_.size()) return nullptr;
    return blocks_[idx].get();
}

L4Verdict CgnEngine::outbound(net::PacketView& v) {
    GK_EXPECTS(configured());
    if (!on_access_subnet(v.src())) {
        ++stats_.dropped_policy;
        return L4Verdict::kPolicy;
    }
    switch (v.protocol()) {
    case net::proto::kUdp:
    case net::proto::kTcp: {
        // Screened before the slice lookup: a fragment or a header that
        // does not parse must not activate (or collide on) a block.
        if (const auto bad = L4Translator::screen(v)) {
            if (*bad == L4Verdict::kFragment) ++stats_.dropped_policy;
            return *bad;
        }
        Slice* s = slice_for_subscriber(v.src());
        if (s == nullptr) return L4Verdict::kNoCapacity; // block collision
        const L4Verdict verdict = s->l4.outbound(v, external_addr_);
        ++(verdict == L4Verdict::kForwarded ? stats_.translated_out
                                            : stats_.pool_exhausted);
        return verdict;
    }
    case net::proto::kIcmp: {
        // A fragment's bytes hold no quote to expose; the translator
        // drops it.
        const bool error = !v.is_fragment() && IcmpTranslator::is_error(v);
        if (error) expose_quote(v);
        const L4Verdict verdict = icmp_.outbound(v, external_addr_);
        if (verdict == L4Verdict::kNoCapacity ||
            verdict == L4Verdict::kFragment)
            ++stats_.dropped_policy;
        if (verdict == L4Verdict::kForwarded)
            ++(error ? stats_.icmp_relayed : stats_.translated_out);
        return verdict;
    }
    default:
        // RFC 6888 scopes a CGN to the transports it can multiplex;
        // anything else cannot share the external address and is dropped.
        ++stats_.dropped_policy;
        return L4Verdict::kPolicy;
    }
}

void CgnEngine::expose_quote(net::PacketView& v) {
    // A subscriber-originated error (a home gateway's Time Exceeded, a
    // port unreachable) quotes the inbound packet as the subscriber saw
    // it: destination = subscriber address and internal port. Rewrite
    // that half to the external view so the upstream sender can
    // attribute the error to its own flow through both layers. Only
    // slices that already exist are consulted: a quote must not claim a
    // port block for the address it names.
    auto q = IcmpQuote::of(v);
    if (q && !q->later_fragment() && on_access_subnet(q->dst())) {
        const std::uint8_t proto = q->protocol();
        if (proto == net::proto::kIcmp) {
            // About an inbound echo reply: the query id is preserved, so
            // only the address needs the external view.
            q->rewrite(IcmpQuote::Half::kDestination, external_addr_,
                       std::nullopt, profile_);
        } else if ((proto == net::proto::kUdp ||
                    proto == net::proto::kTcp) &&
                   q->transport_len() >= 4) {
            if (Slice* s = find_slice(q->dst())) {
                const FlowKey key{proto,
                                  {q->dst(), q->dst_port()},
                                  {q->src(), q->src_port()}};
                const Binding* b =
                    (proto == net::proto::kUdp ? s->udp : s->tcp)
                        .find_outbound(key);
                if (b != nullptr)
                    q->rewrite(IcmpQuote::Half::kDestination, external_addr_,
                               b->external_port, profile_);
            }
        }
    }
    v.refresh_icmp_checksum();
}

L4Verdict CgnEngine::inbound(net::PacketView& v) {
    GK_EXPECTS(configured());
    if (v.dst() != external_addr_) return L4Verdict::kNotOurs;
    switch (v.protocol()) {
    case net::proto::kUdp:
    case net::proto::kTcp: {
        if (const auto bad = L4Translator::screen(v)) {
            if (*bad != L4Verdict::kFragment)
                return L4Verdict::kNotOurs; // unparseable: the CGN's stack
            ++stats_.dropped_policy;
            return L4Verdict::kFragment;
        }
        Slice* s = slice_for_port(v.dst_port());
        if (s == nullptr) return L4Verdict::kNotOurs; // outside the pool
        if (s->l4.inbound(v, external_addr_) != L4Verdict::kForwarded) {
            ++stats_.dropped_no_binding;
            return L4Verdict::kNotOurs; // unsolicited: the CGN's own stack
        }
        ++stats_.translated_in;
        return L4Verdict::kForwarded;
    }
    case net::proto::kIcmp: {
        const bool error = IcmpTranslator::is_error(v);
        bool torn_down = false; // never, under the all-correct profile
        const L4Verdict verdict = icmp_.inbound(
            v, external_addr_,
            [this](std::uint16_t port) -> L4Translator* {
                Slice* s = slice_for_port(port);
                return s != nullptr ? &s->l4 : nullptr;
            },
            torn_down);
        if (verdict == L4Verdict::kErrorDropped) ++stats_.icmp_dropped;
        if (verdict == L4Verdict::kFragment) ++stats_.dropped_policy;
        if (verdict == L4Verdict::kForwarded)
            ++(error ? stats_.icmp_relayed : stats_.translated_in);
        return verdict;
    }
    default:
        return L4Verdict::kNotOurs; // CGN-host local (none expected)
    }
}

bool CgnEngine::hairpin(net::PacketView& v) {
    GK_EXPECTS(configured());
    if (!cfg_.hairpin || v.protocol() != net::proto::kUdp ||
        L4Translator::screen(v))
        return false;
    Slice* ts = slice_for_port(v.dst_port());
    const Binding* target =
        ts != nullptr ? ts->udp.find_by_external(v.dst_port()) : nullptr;
    if (target == nullptr) return false;
    Slice* ss = slice_for_subscriber(v.src());
    if (ss == nullptr) return false;
    if (ss->l4.hairpin(v, external_addr_, target->key.internal) !=
        L4Verdict::kForwarded) {
        ++stats_.pool_exhausted;
        return false;
    }
    ++stats_.hairpinned;
    return true;
}

std::size_t CgnEngine::live_bindings(net::Ipv4Addr subscriber) {
    GK_EXPECTS(configured());
    // Shared pool: per-subscriber attribution would need a table walk;
    // report the pool-wide total (what exhaustion is felt against).
    Slice* s = find_slice(subscriber);
    return s == nullptr ? 0 : s->udp.size() + s->tcp.size();
}

void CgnEngine::flush() {
    for (auto& s : blocks_) {
        if (!s) continue;
        s->udp.clear();
        s->tcp.clear();
    }
    icmp_.clear();
}

CgnGateway::CgnGateway(sim::EventLoop& loop, Config config)
    : config_(std::move(config)),
      host_(loop, "cgn", net::MacAddr::from_index(config_.mac_index)),
      wan_nic_(host_.add_nic(
          net::MacAddr::from_index(config_.mac_index + 1))),
      access_if_(host_.add_iface()), wan_if_(host_.add_iface_on(wan_nic_)),
      engine_(loop, config_.cgn) {
    access_if_.configure(config_.access_addr, config_.access_prefix_len);
    host_.add_route(config_.access_addr, config_.access_prefix_len,
                    access_if_);

    host_.nic().set_frame_hook([this](net::PacketView& v, sim::Frame& f) {
        return from_access(v, f);
    });
    wan_nic_.set_frame_hook(
        [this](net::PacketView& v, sim::Frame& f) { return from_wan(v, f); });
}

void CgnGateway::connect_access(sim::Link& link, sim::Link::Side side) {
    host_.nic().connect(link, side);
}

void CgnGateway::connect_wan(sim::Link& link, sim::Link::Side side) {
    wan_nic_.connect(link, side);
}

void CgnGateway::start(std::function<void(net::Ipv4Addr)> on_ready) {
    on_ready_ = std::move(on_ready);
    wan_dhcp_ = std::make_unique<stack::DhcpClient>(host_, wan_if_);
    wan_dhcp_->start([this](const stack::DhcpLease& lease) {
        host_.add_route(lease.addr, lease.prefix_len, wan_if_);
        if (!lease.router.is_unspecified()) {
            host_.add_route(net::Ipv4Addr::any(), 0, wan_if_, lease.router);
            wan_if_.set_gateway(lease.router);
        }
        engine_.set_addresses(config_.access_addr,
                              config_.access_prefix_len, lease.addr);

        // The access side comes up once the external address is known:
        // the CGN is the access network's DHCP server and router, and
        // passes the ISP's resolver through (no DNS proxy of its own —
        // subscriber gateways already proxy for their LANs).
        stack::DhcpServerConfig acc;
        acc.pool_base = config_.access_pool_base;
        acc.prefix_len = config_.access_prefix_len;
        acc.router = config_.access_addr;
        acc.dns_server = lease.dns_server;
        access_dhcp_ =
            std::make_unique<stack::DhcpServer>(host_, access_if_, acc);
        if (on_ready_) on_ready_(lease.addr);
    });
}

bool CgnGateway::from_access(net::PacketView& v, sim::Frame& frame) {
    if (!engine_.configured()) return false;
    const net::Ipv4Addr dst = v.dst();
    const bool local = dst.is_broadcast() || host_.is_local_addr(dst);
    // Of the traffic addressed to the CGN itself, only subscriber traffic
    // to the shared external address is the engine's: a hairpin
    // candidate (RFC 6888 REQ-9). DHCP and the rest go to the stack.
    if (local && dst != engine_.external_addr()) return false;
    // Forwarding-path TTL check precedes translation (Linux order), so
    // the Time Exceeded quotes the packet as received.
    if (v.ttl() <= 1) {
        host_.send_time_exceeded(
            net::Ipv4Packet::parse(stack::datagram_of(frame)));
        host_.nic().pool().release(std::move(frame));
        return true;
    }
    if (local) {
        if (!engine_.hairpin(v)) return false; // e.g. pinging the address
    } else if (engine_.outbound(v) != L4Verdict::kForwarded) {
        host_.nic().pool().release(std::move(frame));
        return true;
    }
    frame.resize(14u + v.total_len()); // shed trailing bytes and padding
    host_.forward_frame(std::move(frame), v.dst());
    return true;
}

bool CgnGateway::from_wan(net::PacketView& v, sim::Frame& frame) {
    // Packets for other hosts are not the engine's: a CGN translates
    // toward its external address, it does not transit-route.
    if (!engine_.configured()) return false;
    // Only a packet the engine attributes to a subscriber flow makes an
    // expiring TTL a forwarding event, and translating it still
    // refreshes its binding; the Time Exceeded quotes it as received, so
    // copy it before the rewrite.
    std::optional<net::Ipv4Packet> expiring;
    if (v.ttl() <= 1)
        expiring = net::Ipv4Packet::parse(stack::datagram_of(frame));
    const L4Verdict verdict = engine_.inbound(v);
    if (verdict == L4Verdict::kNotOurs)
        return false; // CGN-host local (DHCP toward the ISP)
    const bool forwarded = verdict == L4Verdict::kForwarded;
    if (forwarded && expiring) host_.send_time_exceeded(*expiring);
    if (!forwarded || expiring) {
        wan_nic_.pool().release(std::move(frame));
        return true;
    }
    frame.resize(14u + v.total_len());
    host_.forward_frame(std::move(frame), v.dst());
    return true;
}

} // namespace gatekit::gateway
