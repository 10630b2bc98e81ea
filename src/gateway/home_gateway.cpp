#include "gateway/home_gateway.hpp"

#include <algorithm>
#include <optional>

#include "util/assert.hpp"

namespace gatekit::gateway {

HomeGateway::HomeGateway(sim::EventLoop& loop, Config config)
    : loop_(loop), config_(std::move(config)),
      host_(loop, "gw-" + config_.profile.tag,
            net::MacAddr::from_index(config_.mac_index)),
      wan_nic_(host_.add_nic(
          config_.profile.same_mac_both_sides
              ? net::MacAddr::from_index(config_.mac_index)
              : net::MacAddr::from_index(config_.mac_index + 1))),
      lan_if_(host_.add_iface()), wan_if_(host_.add_iface_on(wan_nic_)),
      nat_(loop, config_.profile), fwd_(loop, config_.profile.fwd),
      dns_proxy_(host_, config_.profile) {
    lan_if_.configure(config_.lan_addr, config_.lan_prefix_len);
    host_.add_route(config_.lan_addr, config_.lan_prefix_len, lan_if_);

    for (const Rule& r : config_.profile.firewall_rules)
        filter_.add_rule(r);

    // The datapath: every IPv4 frame to the gateway's MACs (or broadcast)
    // meets these hooks first and is translated and forwarded in its own
    // buffer; what is not the NAT's falls through to the gateway's stack.
    host_.nic().set_frame_hook(
        [this](net::PacketView& v, sim::Frame& f) { return from_lan(v, f); });
    wan_nic_.set_frame_hook(
        [this](net::PacketView& v, sim::Frame& f) { return from_wan(v, f); });
}

bool HomeGateway::filter_pass(const RuleChain::Key& key) {
    const RuleVerdict v = config_.profile.firewall_compiled
                              ? filter_.evaluate_compiled(key)
                              : filter_.evaluate(key);
    return v == RuleVerdict::kAccept;
}

/// An unconfigured empty-accept chain must cost nothing and count
/// nothing — the unfiltered figure benches run through here per packet.
static bool filter_active(const RuleChain& f) {
    return !f.empty() || f.default_verdict() != RuleVerdict::kAccept;
}

bool HomeGateway::lan_to_wan(net::PacketView& v) {
    // FORWARD chain first, pre-SNAT (the internal view of the flow).
    return (!filter_active(filter_) || filter_pass(RuleChain::key_of(v))) &&
           nat_.outbound(v) == L4Verdict::kForwarded;
}

bool HomeGateway::expires(const net::PacketView& v) const {
    return config_.profile.decrement_ttl && v.ttl() <= 1;
}

/// Consume a frame the datapath drops, recycling it into its port.
static bool drop(stack::NetIf& port, sim::Frame& frame) {
    port.pool().release(std::move(frame));
    return true;
}

bool HomeGateway::time_exceeded(stack::NetIf& port, sim::Frame& frame) {
    host_.send_time_exceeded(
        net::Ipv4Packet::parse(stack::datagram_of(frame)));
    return drop(port, frame);
}

void HomeGateway::forward(Direction dir, const net::PacketView& v,
                          sim::Frame& frame) {
    frame.resize(14u + v.total_len()); // shed trailing bytes and padding
    const stack::Iface* egress = dir == Direction::Up ? &wan_if_ : &lan_if_;
    fwd_.submit(dir, v.total_len(),
                [this, f = std::move(frame), dst = v.dst(), egress]() mutable {
                    host_.forward_frame(std::move(f), dst, egress);
                });
}

bool HomeGateway::from_lan(net::PacketView& v, sim::Frame& frame) {
    stack::NetIf& lan_nic = host_.nic();
    // During a fault stall the device is dead to the wire: swallow
    // everything (NAT'd and gateway-local alike) until it recovers.
    if (stalled()) return drop(lan_nic, frame);
    if (!nat_.configured()) return false;
    const net::Ipv4Addr dst = v.dst();
    if (dst.is_broadcast() || host_.is_local_addr(dst)) {
        // Addressed to the gateway: a hairpin candidate when it targets
        // the WAN address of a device that hairpins; otherwise it is for
        // the gateway's own stack (e.g. pinging the WAN address). A
        // hairpinned datagram is forwarded, so an expiring TTL draws a
        // Time Exceeded quoting it as received, as on the WAN path.
        if (dst != nat_.wan_addr()) return false;
        std::optional<net::Ipv4Packet> expiring;
        if (expires(v))
            expiring = net::Ipv4Packet::parse(stack::datagram_of(frame));
        if (!nat_.hairpin(v)) return false;
        if (expiring) {
            host_.send_time_exceeded(*expiring);
            return drop(lan_nic, frame);
        }
        forward(Direction::Down, v, frame);
        return true;
    }
    // Linux order: the forwarding path's TTL check (and its Time
    // Exceeded, quoting the packet as received) precedes the FORWARD
    // chain and translation.
    if (expires(v)) return time_exceeded(lan_nic, frame);
    if (!lan_to_wan(v)) return drop(lan_nic, frame);
    forward(Direction::Up, v, frame);
    return true;
}

bool HomeGateway::from_wan(net::PacketView& v, sim::Frame& frame) {
    if (stalled()) return drop(wan_nic_, frame);
    const net::Ipv4Addr dst = v.dst();
    if (!dst.is_broadcast() && !host_.is_local_addr(dst)) {
        // For another host: only the plain-router fallback forwards, and
        // only into the LAN subnet, bypassing NAT and the FORWARD chain.
        if (config_.profile.unknown_proto !=
                UnknownProtocolPolicy::Untranslated ||
            !dst.same_subnet(config_.lan_addr, config_.lan_prefix_len))
            return false;
        if (expires(v)) return time_exceeded(wan_nic_, frame);
        if (config_.profile.decrement_ttl) v.decrement_ttl();
        forward(Direction::Down, v, frame);
        return true;
    }
    if (!nat_.configured()) return false;
    // Only a packet the NAT forwards makes an expiring TTL a forwarding
    // event, and translating it still refreshes its binding; the Time
    // Exceeded quotes it as received, so copy it before the rewrite.
    std::optional<net::Ipv4Packet> expiring;
    if (expires(v))
        expiring = net::Ipv4Packet::parse(stack::datagram_of(frame));
    const L4Verdict verdict = nat_.inbound(v);
    if (verdict == L4Verdict::kNotOurs)
        return false; // gateway-local: DHCP, DNS, unsolicited packets
    if (verdict != L4Verdict::kForwarded) return drop(wan_nic_, frame);
    if (expiring) {
        host_.send_time_exceeded(*expiring);
        return drop(wan_nic_, frame);
    }
    // The FORWARD chain sees the internal (post-DNAT) view of the flow.
    if (filter_active(filter_) && !filter_pass(RuleChain::key_of(v)))
        return drop(wan_nic_, frame);
    forward(Direction::Down, v, frame);
    return true;
}

void HomeGateway::connect_lan(sim::Link& link, sim::Link::Side side) {
    host_.nic().connect(link, side);
}

void HomeGateway::connect_wan(sim::Link& link, sim::Link::Side side) {
    wan_nic_.connect(link, side);
}

void HomeGateway::start(std::function<void(net::Ipv4Addr)> on_ready) {
    on_ready_ = std::move(on_ready);
    wan_dhcp_ = std::make_unique<stack::DhcpClient>(host_, wan_if_);
    wan_dhcp_->start([this](const stack::DhcpLease& lease) {
        host_.add_route(lease.addr, lease.prefix_len, wan_if_);
        if (!lease.router.is_unspecified()) {
            host_.add_route(net::Ipv4Addr::any(), 0, wan_if_, lease.router);
            // Off-link egress (e.g. toward subnets behind an upstream
            // CGN) resolves the lease's router instead of ARPing for
            // the final destination.
            wan_if_.set_gateway(lease.router);
        }
        nat_.set_addresses(lease.addr);

        // LAN-side services come up once the uplink works.
        stack::DhcpServerConfig lan_cfg;
        lan_cfg.pool_base = config_.lan_pool_base;
        lan_cfg.prefix_len = config_.lan_prefix_len;
        lan_cfg.router = config_.lan_addr;
        lan_cfg.dns_server = config_.lan_addr; // we proxy DNS
        lan_dhcp_ = std::make_unique<stack::DhcpServer>(host_, lan_if_,
                                                        lan_cfg);
        dns_proxy_.start({lease.dns_server, net::kDnsPort}, lease.addr);
        if (on_ready_) on_ready_(lease.addr);
    });
}

void HomeGateway::bind_observability(obs::MetricsRegistry* reg,
                                     obs::Tracer* tracer,
                                     const std::string& device) {
    tracer_ = tracer;
    obs_device_ = device;
    if (reg != nullptr) {
        nat_.bind_observability(*reg, device);
        fwd_.bind_observability(*reg, device);
        dns_proxy_.bind_observability(*reg, device);
        if (!filter_.empty()) filter_.attach_metrics(*reg, device);
        m_faults_ = reg->counter("gateway.faults", {{"device", device}});
    }
    host_.bind_observability(reg, tracer);
}

void HomeGateway::inject_fault(const GatewayFault& fault) {
    ++faults_injected_;
    obs::inc(m_faults_);
    if (obs::trace_on(tracer_)) {
        auto ev = tracer_->event(obs_device_, "gateway", "fault");
        ev.with("flush_nat", static_cast<std::int64_t>(fault.flush_nat));
        ev.with("stall_ns", static_cast<std::int64_t>(fault.stall.count()));
        tracer_->emit(ev);
    }
    if (fault.flush_nat) nat_.flush();
    if (fault.stall > sim::Duration::zero())
        stalled_until_ = std::max(stalled_until_, loop_.now() + fault.stall);
    // Dump the flight recorder after applying the fault so the window
    // shows what led up to it.
    if (obs::trace_on(tracer_)) tracer_->trigger(obs_device_, "gateway.fault");
}

} // namespace gatekit::gateway
