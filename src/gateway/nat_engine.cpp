#include "gateway/nat_engine.hpp"

#include "util/assert.hpp"

namespace gatekit::gateway {

namespace {
// Side-table capacity caps. Unlike the UDP/TCP binding tables (bounded
// per profile), the ICMP-query and IP-only maps used to grow without
// limit under a flood of distinct query ids or remote addresses. Real
// devices bound this state; the caps are far above anything the paper's
// measurements create, so only hostile workloads ever reach them.
constexpr std::size_t kMaxIcmpQueries = 1024;
constexpr std::size_t kMaxIpOnly = 1024;

void bump(std::uint64_t& n, obs::Counter* c) {
    ++n;
    obs::inc(c);
}
} // namespace

NatEngine::NatEngine(sim::EventLoop& loop, const DeviceProfile& profile)
    : loop_(loop), profile_(profile), udp_(loop, profile, net::proto::kUdp),
      tcp_(loop, profile, net::proto::kTcp), l4_(loop, profile, udp_, tcp_),
      icmp_(loop, profile, kMaxIcmpQueries) {}

void NatEngine::bind_observability(obs::MetricsRegistry& reg,
                                   const std::string& device) {
    udp_.bind_observability(reg, device);
    tcp_.bind_observability(reg, device);
    obs::Labels labels{{"device", device}};
    m_drop_capacity_ = reg.counter("nat.drop.capacity", labels);
    m_drop_policy_ = reg.counter("nat.drop.policy", labels);
    m_icmp_translated_ = reg.counter("nat.icmp.translated", labels);
    m_icmp_dropped_ = reg.counter("nat.icmp.dropped", labels);
    m_icmp_rate_limited_ = reg.counter("nat.icmp.rate_limited", labels);
    m_icmp_quote_rejected_ = reg.counter("nat.icmp.quote_rejected", labels);
    m_icmp_teardown_ = reg.counter("nat.icmp.teardown", labels);
    m_wan_syn_dropped_ = reg.counter("nat.wan_syn.dropped", labels);
    m_wan_syn_tarpitted_ = reg.counter("nat.wan_syn.tarpitted", labels);
    m_wan_stray_dropped_ = reg.counter("nat.wan_syn.stray_dropped", labels);
    l4_.bind_observability(reg, device);
}

L4Verdict NatEngine::outbound(net::PacketView& v) {
    GK_EXPECTS(configured());
    L4Verdict verdict;
    switch (v.protocol()) {
    case net::proto::kUdp:
    case net::proto::kTcp:
        verdict = l4_.outbound(v, wan_addr_);
        break;
    case net::proto::kIcmp:
        verdict = icmp_.outbound(v, wan_addr_);
        break;
    default:
        verdict = outbound_unknown(v);
    }
    if (verdict != L4Verdict::kForwarded) count_drop(verdict);
    return verdict;
}

L4Verdict NatEngine::inbound(net::PacketView& v) {
    GK_EXPECTS(configured());
    L4Verdict verdict;
    switch (v.protocol()) {
    case net::proto::kUdp:
    case net::proto::kTcp:
        verdict = l4_.inbound(v, wan_addr_);
        break;
    case net::proto::kIcmp: {
        const bool error = IcmpTranslator::is_error(v); // before a RST
        bool torn_down = false;
        verdict = icmp_.inbound(
            v, wan_addr_, [this](std::uint16_t) { return &l4_; }, torn_down);
        if (torn_down) bump(stats_.icmp_teardowns, m_icmp_teardown_);
        if (error && verdict == L4Verdict::kForwarded)
            bump(stats_.icmp_translated, m_icmp_translated_);
        break;
    }
    default:
        verdict = inbound_unknown(v);
    }
    if (verdict != L4Verdict::kForwarded) count_drop(verdict);
    return verdict;
}

void NatEngine::count_drop(L4Verdict v) {
    switch (v) {
    case L4Verdict::kNoCapacity:
        bump(stats_.dropped_capacity, m_drop_capacity_);
        break;
    case L4Verdict::kFragment:
    case L4Verdict::kPolicy:
        bump(stats_.dropped_policy, m_drop_policy_);
        break;
    case L4Verdict::kSynDropped:
        bump(stats_.wan_syn_dropped, m_wan_syn_dropped_);
        break;
    case L4Verdict::kSynTarpitted:
        bump(stats_.wan_syn_tarpitted, m_wan_syn_tarpitted_);
        break;
    case L4Verdict::kStrayDropped:
        bump(stats_.wan_stray_dropped, m_wan_stray_dropped_);
        break;
    case L4Verdict::kErrorDropped:
        bump(stats_.icmp_dropped, m_icmp_dropped_);
        break;
    case L4Verdict::kRateLimited:
        bump(stats_.icmp_rate_limited, m_icmp_rate_limited_);
        break;
    case L4Verdict::kQuoteRejected:
        bump(stats_.icmp_quote_rejected, m_icmp_quote_rejected_);
        break;
    default:
        break;
    }
}

void NatEngine::flush() {
    udp_.clear();
    tcp_.clear();
    icmp_.clear();
    ip_only_.clear();
}

L4Verdict NatEngine::outbound_unknown(net::PacketView& v) {
    switch (profile_.unknown_proto) {
    case UnknownProtocolPolicy::Drop:
        return L4Verdict::kPolicy;
    case UnknownProtocolPolicy::Untranslated:
        break; // a plain router: forwarded verbatim (TTL per profile)
    case UnknownProtocolPolicy::TranslateIpOnly: {
        const IpOnlyKey key{v.protocol(), v.dst()};
        if (!ip_only_.contains(key) && ip_only_.size() >= kMaxIpOnly) {
            std::erase_if(ip_only_, [now = loop_.now()](const auto& e) {
                return now >= e.second.expires_at;
            });
            if (ip_only_.size() >= kMaxIpOnly) return L4Verdict::kNoCapacity;
        }
        ip_only_[key] = IpOnlyBinding{
            v.src(), loop_.now() + profile_.unknown_proto_timeout};
        // SCTP's CRC survives an IP-only rewrite; DCCP's pseudo-header
        // checksum does not.
        v.set_src(wan_addr_);
        break;
    }
    }
    if (profile_.decrement_ttl) v.decrement_ttl();
    return L4Verdict::kForwarded;
}

L4Verdict NatEngine::inbound_unknown(net::PacketView& v) {
    if (profile_.unknown_proto != UnknownProtocolPolicy::TranslateIpOnly)
        return L4Verdict::kNotOurs;
    auto it = ip_only_.find(IpOnlyKey{v.protocol(), v.src()});
    if (it == ip_only_.end()) return L4Verdict::kNotOurs;
    if (loop_.now() >= it->second.expires_at) {
        ip_only_.erase(it);
        return L4Verdict::kNotOurs;
    }
    if (!profile_.unknown_proto_inbound_allowed) return L4Verdict::kPolicy;
    it->second.expires_at = loop_.now() + profile_.unknown_proto_timeout;
    v.set_dst(it->second.internal);
    if (profile_.decrement_ttl) v.decrement_ttl();
    return L4Verdict::kForwarded;
}

bool NatEngine::hairpin(net::PacketView& v) {
    if (!profile_.hairpin || v.protocol() != net::proto::kUdp ||
        L4Translator::screen(v))
        return false;
    const Binding* target = udp_.find_by_external(v.dst_port());
    return target != nullptr &&
           l4_.hairpin(v, wan_addr_, target->key.internal) ==
               L4Verdict::kForwarded;
}

} // namespace gatekit::gateway
