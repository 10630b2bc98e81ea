#include "gateway/nat_engine.hpp"

#include "net/checksum.hpp"
#include "net/tcp_header.hpp"
#include "util/assert.hpp"

namespace gatekit::gateway {

namespace {
constexpr sim::Duration kIcmpQueryTimeout = std::chrono::seconds(60);
// Side-table capacity caps. Unlike the UDP/TCP binding tables (bounded
// per profile), the ICMP-query and IP-only maps used to grow without
// limit under a flood of distinct query ids or remote addresses. Real
// devices bound this state; the caps are far above anything the paper's
// measurements create, so only hostile workloads ever reach them.
constexpr std::size_t kMaxIcmpQueries = 1024;
constexpr std::size_t kMaxIpOnly = 1024;

/// Drop every expired entry; both side tables prune this way when the
/// cap is reached (the hot paths never pay the scan).
template <typename Map>
void prune_expired(Map& m, sim::TimePoint now) {
    for (auto it = m.begin(); it != m.end();) {
        if (now >= it->second.expires_at)
            it = m.erase(it);
        else
            ++it;
    }
}
} // namespace

NatEngine::NatEngine(sim::EventLoop& loop, const DeviceProfile& profile)
    : loop_(loop), profile_(profile), udp_(loop, profile, net::proto::kUdp),
      tcp_(loop, profile, net::proto::kTcp), l4_(loop, profile, udp_, tcp_) {}

void NatEngine::set_addresses(net::Ipv4Addr lan_addr, int lan_prefix_len,
                              net::Ipv4Addr wan_addr) {
    lan_addr_ = lan_addr;
    lan_prefix_len_ = lan_prefix_len;
    wan_addr_ = wan_addr;
}

net::Ipv4Packet NatEngine::translated_header(const net::Ipv4Packet& pkt,
                                             net::Ipv4Addr new_src,
                                             net::Ipv4Addr new_dst) const {
    net::Ipv4Packet out;
    out.h = pkt.h;
    out.h.src = new_src;
    out.h.dst = new_dst;
    if (profile_.decrement_ttl)
        out.h.ttl = static_cast<std::uint8_t>(pkt.h.ttl - 1);
    if (profile_.honor_record_route) out.record_route(wan_addr_);
    return out;
}

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

std::optional<net::Bytes> NatEngine::outbound(const net::Ipv4Packet& pkt) {
    GK_EXPECTS(configured());
    if (profile_.decrement_ttl && pkt.h.ttl <= 1) return std::nullopt;
    switch (pkt.h.protocol) {
    case net::proto::kUdp:
    case net::proto::kTcp:
        return translate_serialized(pkt, [this](net::PacketView& v) {
            return outbound(v) == L4Verdict::kForwarded;
        });
    case net::proto::kIcmp:
        return outbound_icmp(pkt);
    default:
        return outbound_unknown(pkt);
    }
}

L4Verdict NatEngine::outbound(net::PacketView& v) {
    GK_EXPECTS(configured());
    const L4Verdict verdict = l4_.outbound(v, wan_addr_);
    if (verdict != L4Verdict::kForwarded) count_drop(verdict);
    return verdict;
}

L4Verdict NatEngine::inbound(net::PacketView& v) {
    GK_EXPECTS(configured());
    const L4Verdict verdict = l4_.inbound(v, wan_addr_);
    if (verdict != L4Verdict::kForwarded) count_drop(verdict);
    return verdict;
}

void NatEngine::count_drop(L4Verdict v) {
    const auto bump = [](std::uint64_t& n, obs::Counter* c) {
        ++n;
        obs::inc(c);
    };
    switch (v) {
    case L4Verdict::kNoCapacity:
        bump(stats_.dropped_capacity, m_drop_capacity_);
        break;
    case L4Verdict::kFragment:
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
    default:
        break;
    }
}

void NatEngine::flush() {
    udp_.clear();
    tcp_.clear();
    icmp_queries_.clear();
    ip_only_.clear();
}

std::optional<net::Bytes> NatEngine::outbound_icmp(
    const net::Ipv4Packet& pkt) {
    net::IcmpMessage msg;
    try {
        msg = net::IcmpMessage::parse(pkt.payload);
    } catch (const net::ParseError&) {
        return std::nullopt;
    }
    if (msg.type == net::IcmpType::Echo) {
        const IcmpQueryKey key{pkt.h.src, msg.echo_id(), pkt.h.dst};
        if (!icmp_queries_.contains(key) &&
            icmp_queries_.size() >= kMaxIcmpQueries) {
            prune_expired(icmp_queries_, loop_.now());
            if (icmp_queries_.size() >= kMaxIcmpQueries) {
                ++stats_.dropped_capacity;
                obs::inc(m_drop_capacity_);
                return std::nullopt;
            }
        }
        icmp_queries_[key] =
            IcmpQueryBinding{key, loop_.now() + kIcmpQueryTimeout};
        auto out = translated_header(pkt, wan_addr_, pkt.h.dst);
        out.payload = pkt.payload; // id preserved
        return out.serialize();
    }
    // Outbound errors from LAN hosts: forward with outer translation.
    auto out = translated_header(pkt, wan_addr_, pkt.h.dst);
    out.payload = pkt.payload;
    return out.serialize();
}

std::optional<net::Bytes> NatEngine::outbound_unknown(
    const net::Ipv4Packet& pkt) {
    switch (profile_.unknown_proto) {
    case UnknownProtocolPolicy::Drop:
        ++stats_.dropped_policy;
        obs::inc(m_drop_policy_);
        return std::nullopt;
    case UnknownProtocolPolicy::Untranslated: {
        // Behave as a plain router: forward verbatim (TTL per profile).
        net::Ipv4Packet out = pkt;
        if (profile_.decrement_ttl)
            out.h.ttl = static_cast<std::uint8_t>(pkt.h.ttl - 1);
        return out.serialize();
    }
    case UnknownProtocolPolicy::TranslateIpOnly: {
        const IpOnlyKey key{pkt.h.protocol, pkt.h.dst};
        if (!ip_only_.contains(key) && ip_only_.size() >= kMaxIpOnly) {
            prune_expired(ip_only_, loop_.now());
            if (ip_only_.size() >= kMaxIpOnly) {
                ++stats_.dropped_capacity;
                obs::inc(m_drop_capacity_);
                return std::nullopt;
            }
        }
        ip_only_[key] = IpOnlyBinding{
            pkt.h.src, loop_.now() + profile_.unknown_proto_timeout};
        // Rewrite only the source address and the IP header checksum,
        // leaving the transport payload bytes untouched: SCTP's CRC
        // survives this, DCCP's pseudo-header checksum does not.
        net::Ipv4Packet out = pkt;
        out.h.src = wan_addr_;
        if (profile_.decrement_ttl)
            out.h.ttl = static_cast<std::uint8_t>(pkt.h.ttl - 1);
        return out.serialize(); // payload bytes preserved verbatim
    }
    }
    return std::nullopt;
}

std::optional<net::Bytes> NatEngine::hairpin(const net::Ipv4Packet& pkt) {
    if (!profile_.hairpin || pkt.h.protocol != net::proto::kUdp)
        return std::nullopt;
    return translate_serialized(pkt, [this](net::PacketView& v) {
        if (L4Translator::screen(v)) return false;
        const Binding* target = udp_.find_by_external(v.dst_port());
        return target != nullptr &&
               l4_.hairpin(v, wan_addr_, target->key.internal) ==
                   L4Verdict::kForwarded;
    });
}

std::optional<net::Bytes> NatEngine::inbound(const net::Ipv4Packet& pkt,
                                             bool& handled) {
    GK_EXPECTS(configured());
    handled = false;
    switch (pkt.h.protocol) {
    case net::proto::kUdp:
    case net::proto::kTcp:
        return translate_serialized(pkt, [&](net::PacketView& v) {
            const L4Verdict verdict = inbound(v);
            handled = verdict != L4Verdict::kNotOurs;
            return verdict == L4Verdict::kForwarded;
        });
    case net::proto::kIcmp:
        return inbound_icmp(pkt, handled);
    default:
        return inbound_unknown(pkt, handled);
    }
}

std::optional<IcmpKind> NatEngine::classify_icmp(const net::IcmpMessage& m) {
    using net::IcmpType;
    namespace code = net::icmp_code;
    switch (m.type) {
    case IcmpType::DestUnreachable:
        switch (m.code) {
        case code::kNetUnreachable:
            return IcmpKind::NetUnreachable;
        case code::kHostUnreachable:
            return IcmpKind::HostUnreachable;
        case code::kProtoUnreachable:
            return IcmpKind::ProtoUnreachable;
        case code::kPortUnreachable:
            return IcmpKind::PortUnreachable;
        case code::kFragNeeded:
            return IcmpKind::FragNeeded;
        case code::kSourceRouteFailed:
            return IcmpKind::SourceRouteFailed;
        default:
            return std::nullopt;
        }
    case IcmpType::SourceQuench:
        return IcmpKind::SourceQuench;
    case IcmpType::TimeExceeded:
        // Only the two defined codes classify; anything else used to be
        // lumped in with TtlExceeded, which let a spoofed error with a
        // nonsense code ride a device's TTL-translation posture.
        switch (m.code) {
        case code::kTtlExceeded:
            return IcmpKind::TtlExceeded;
        case code::kReassemblyTimeExceeded:
            return IcmpKind::ReassemblyTimeExceeded;
        default:
            return std::nullopt;
        }
    case IcmpType::ParamProblem:
        return IcmpKind::ParamProblem;
    default:
        return std::nullopt;
    }
}

bool NatEngine::icmp_error_admitted() {
    const auto now = loop_.now();
    if (now >= icmp_err_window_ + std::chrono::seconds(1)) {
        icmp_err_window_ = now;
        icmp_err_count_ = 0;
    }
    if (icmp_err_count_ >= profile_.icmp_error_rate_limit) return false;
    ++icmp_err_count_;
    return true;
}

bool NatEngine::embedded_quote_valid(const net::Ipv4Packet& embedded) {
    // RFC 792 quotes carry the embedded IP header plus at least the
    // first 8 transport bytes; a shorter quote cannot be checked against
    // a binding beyond the bare port pair, which is exactly the sloppy
    // acceptance attack class 4 exploits.
    if (embedded.payload.size() < 8) return false;
    if (embedded.h.protocol == net::proto::kUdp) {
        const auto udp_len = static_cast<std::uint16_t>(
            (embedded.payload[4] << 8) | embedded.payload[5]);
        if (udp_len < 8) return false; // impossible UDP header
    }
    return true;
}

net::Bytes NatEngine::translate_embedded(const net::Bytes& quoted,
                                         const Binding& binding,
                                         std::uint8_t proto) const {
    net::Bytes out = quoted;
    if (out.size() < 20) return out;
    const std::size_t ihl = static_cast<std::size_t>(out[0] & 0xf) * 4;
    if (out.size() < ihl) return out;

    // Rewrite the embedded source address (external -> internal).
    const std::uint32_t old_addr = wan_addr_.value();
    const std::uint32_t new_addr = binding.key.internal.addr.value();
    for (int i = 0; i < 4; ++i)
        out[12 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(new_addr >> (24 - 8 * i));

    if (profile_.fix_embedded_ip_checksum) {
        const auto old_ck =
            static_cast<std::uint16_t>((quoted[10] << 8) | quoted[11]);
        const auto new_ck = net::checksum_update32(old_ck, old_addr, new_addr);
        out[10] = static_cast<std::uint8_t>(new_ck >> 8);
        out[11] = static_cast<std::uint8_t>(new_ck);
    }

    if (profile_.fix_embedded_transport && out.size() >= ihl + 2) {
        // Rewrite the embedded source port (external -> internal).
        const std::uint16_t old_port = binding.external_port;
        const std::uint16_t new_port = binding.key.internal.port;
        out[ihl] = static_cast<std::uint8_t>(new_port >> 8);
        out[ihl + 1] = static_cast<std::uint8_t>(new_port);
        // Fix the embedded transport checksum when it is inside the quote
        // (UDP: offset 6; TCP's checksum at offset 16 is beyond the
        // 8-byte quote). Account for both the port and the pseudo-header
        // address change.
        if (proto == net::proto::kUdp && out.size() >= ihl + 8) {
            auto ck = static_cast<std::uint16_t>((out[ihl + 6] << 8) |
                                                 out[ihl + 7]);
            if (ck != 0) { // zero means checksum disabled
                ck = net::checksum_update32(ck, old_addr, new_addr);
                ck = net::checksum_update16(ck, old_port, new_port);
                // A computed zero must be written as 0xffff (RFC 768):
                // a raw 0x0000 here reads as "checksum disabled" to the
                // next NAT layer in a cascade, which then skips its own
                // rewrite and delivers a quote with a stale checksum.
                if (ck == 0) ck = 0xffff;
                out[ihl + 6] = static_cast<std::uint8_t>(ck >> 8);
                out[ihl + 7] = static_cast<std::uint8_t>(ck);
            }
        }
    }
    return out;
}

net::Bytes NatEngine::synthesize_rst_from_icmp(
    const net::Ipv4Packet& embedded, const Binding& binding) const {
    // ls2 behavior: instead of relaying the ICMP error, fabricate a TCP
    // RST toward the internal host. The RST is invalid: sequence and ack
    // numbers are zero, so a correct TCP stack ignores it.
    net::TcpSegment rst;
    rst.src_port = binding.key.remote.port;
    rst.dst_port = binding.key.internal.port;
    rst.flags.rst = true;
    net::Ipv4Packet out;
    out.h.protocol = net::proto::kTcp;
    out.h.src = embedded.h.dst; // the remote the flow was talking to
    out.h.dst = binding.key.internal.addr;
    out.h.ttl = 64;
    out.payload = rst.serialize(out.h.src, out.h.dst);
    return out.serialize();
}

std::optional<net::Bytes> NatEngine::inbound_icmp(const net::Ipv4Packet& pkt,
                                                  bool& handled) {
    net::IcmpMessage msg;
    try {
        msg = net::IcmpMessage::parse(pkt.payload);
    } catch (const net::ParseError&) {
        return std::nullopt;
    }

    if (msg.type == net::IcmpType::EchoReply) {
        for (auto it = icmp_queries_.begin(); it != icmp_queries_.end();) {
            if (loop_.now() >= it->second.expires_at) {
                it = icmp_queries_.erase(it);
                continue;
            }
            if (it->first.id == msg.echo_id() &&
                it->first.remote == pkt.h.src) {
                handled = true;
                auto out = translated_header(pkt, pkt.h.src,
                                             it->first.internal);
                out.payload = pkt.payload;
                return out.serialize();
            }
            ++it;
        }
        return std::nullopt; // unsolicited reply: gateway-local (its ping)
    }

    if (!msg.is_error()) return std::nullopt;

    // Hardened devices budget how many inbound WAN errors they process
    // per second; once spent, errors are dropped before any quote parse
    // or binding lookup, so an attacker's port sweep starves itself.
    if (profile_.icmp_error_rate_limit > 0 && !icmp_error_admitted()) {
        handled = true;
        ++stats_.icmp_rate_limited;
        obs::inc(m_icmp_rate_limited_);
        return std::nullopt;
    }

    // Parse the quoted datagram to identify the binding it concerns.
    net::Ipv4Packet embedded;
    try {
        embedded = net::Ipv4Packet::parse_prefix(msg.payload);
    } catch (const net::ParseError&) {
        return std::nullopt;
    }
    if (embedded.h.src != wan_addr_) return std::nullopt; // not our flow

    // A quote of a non-first fragment carries mid-stream payload where
    // the transport header would sit; reading those bytes as ports could
    // alias an unrelated live binding on attacker-chosen data. The quote
    // is unattributable, so drop the error outright.
    if (embedded.h.frag_offset != 0) {
        handled = true;
        ++stats_.icmp_dropped;
        obs::inc(m_icmp_dropped_);
        return std::nullopt;
    }

    const auto kind = classify_icmp(msg);
    if (!kind) return std::nullopt;

    if (embedded.h.protocol == net::proto::kIcmp) {
        // Error about an ICMP echo flow (Table 2 "ICMP: Host Unreach.").
        handled = true;
        if (!profile_.icmp_query_errors_translated) {
            ++stats_.icmp_dropped;
            obs::inc(m_icmp_dropped_);
            return std::nullopt;
        }
        if (embedded.payload.size() < 8) return std::nullopt;
        const auto id = static_cast<std::uint16_t>(
            (embedded.payload[4] << 8) | embedded.payload[5]);
        for (const auto& [key, qb] : icmp_queries_) {
            if (key.id == id && key.remote == embedded.h.dst) {
                ++stats_.icmp_translated;
                obs::inc(m_icmp_translated_);
                net::Bytes quoted = msg.payload;
                // Rewrite the embedded source address back.
                const std::uint32_t v = key.internal.value();
                for (int i = 0; i < 4; ++i)
                    quoted[12 + static_cast<std::size_t>(i)] =
                        static_cast<std::uint8_t>(v >> (24 - 8 * i));
                // The quote's IP checksum covers the rewritten address;
                // leaving it stale survives one NAT layer (end hosts
                // rarely verify quotes) but a downstream home NAT that
                // validates embedded quotes discards the error. Same
                // incremental update the UDP/TCP path applies, behind
                // the same profile knob.
                if (profile_.fix_embedded_ip_checksum && quoted.size() >= 12) {
                    const auto old_ck = static_cast<std::uint16_t>(
                        (quoted[10] << 8) | quoted[11]);
                    const auto new_ck = net::checksum_update32(
                        old_ck, wan_addr_.value(), v);
                    quoted[10] = static_cast<std::uint8_t>(new_ck >> 8);
                    quoted[11] = static_cast<std::uint8_t>(new_ck);
                }
                net::IcmpMessage fwd = msg;
                fwd.payload = std::move(quoted);
                auto out = translated_header(pkt, pkt.h.src, key.internal);
                out.payload = fwd.serialize();
                return out.serialize();
            }
        }
        return std::nullopt;
    }

    if (embedded.h.protocol != net::proto::kUdp &&
        embedded.h.protocol != net::proto::kTcp)
        return std::nullopt;
    if (embedded.payload.size() < 4) return std::nullopt;
    if (profile_.validate_embedded_binding &&
        !embedded_quote_valid(embedded)) {
        handled = true;
        ++stats_.icmp_quote_rejected;
        obs::inc(m_icmp_quote_rejected_);
        return std::nullopt;
    }

    const auto ext_port = static_cast<std::uint16_t>(
        (embedded.payload[0] << 8) | embedded.payload[1]);
    const auto remote_port = static_cast<std::uint16_t>(
        (embedded.payload[2] << 8) | embedded.payload[3]);
    const net::Endpoint remote{embedded.h.dst, remote_port};

    const bool is_tcp = embedded.h.protocol == net::proto::kTcp;
    BindingTable& table = is_tcp ? tcp_ : udp_;
    Binding* b = table.find_inbound(ext_port, remote);
    if (b == nullptr) return std::nullopt;
    handled = true;

    // Conntrack-style teardown posture: an accepted hard error purges
    // the binding it names, whether or not the device also relays the
    // error into the LAN. This is the ReDAN off-path DoS surface; the
    // purge runs after the relay bytes are built (the binding is read
    // there) and before every return below.
    const bool purge =
        profile_.icmp_error_teardown &&
        (*kind == IcmpKind::PortUnreachable ||
         *kind == IcmpKind::HostUnreachable ||
         *kind == IcmpKind::ProtoUnreachable);
    std::optional<net::Bytes> result;

    const auto& set = is_tcp ? profile_.icmp_tcp : profile_.icmp_udp;
    if (!set.translates(*kind)) {
        ++stats_.icmp_dropped;
        obs::inc(m_icmp_dropped_);
    } else if (is_tcp && profile_.tcp_icmp_becomes_rst) {
        ++stats_.icmp_translated;
        obs::inc(m_icmp_translated_);
        result = synthesize_rst_from_icmp(embedded, *b);
    } else {
        ++stats_.icmp_translated;
        obs::inc(m_icmp_translated_);
        net::IcmpMessage fwd = msg;
        fwd.payload =
            translate_embedded(msg.payload, *b, embedded.h.protocol);
        auto out = translated_header(pkt, pkt.h.src, b->key.internal.addr);
        out.payload = fwd.serialize(); // outer ICMP checksum recomputed
        result = out.serialize();
    }
    if (purge) {
        ++stats_.icmp_teardowns;
        obs::inc(m_icmp_teardown_);
        table.remove(b->key); // b invalid past this point
    }
    return result;
}

std::optional<net::Bytes> NatEngine::inbound_unknown(
    const net::Ipv4Packet& pkt, bool& handled) {
    if (profile_.unknown_proto != UnknownProtocolPolicy::TranslateIpOnly)
        return std::nullopt;
    auto it = ip_only_.find(IpOnlyKey{pkt.h.protocol, pkt.h.src});
    if (it == ip_only_.end()) return std::nullopt;
    if (loop_.now() >= it->second.expires_at) {
        ip_only_.erase(it);
        return std::nullopt;
    }
    handled = true;
    if (!profile_.unknown_proto_inbound_allowed) {
        ++stats_.dropped_policy;
        obs::inc(m_drop_policy_);
        return std::nullopt;
    }
    it->second.expires_at = loop_.now() + profile_.unknown_proto_timeout;
    // IP-only rewrite of the destination; transport bytes untouched.
    net::Ipv4Packet out = pkt;
    out.h.dst = it->second.internal;
    if (profile_.decrement_ttl)
        out.h.ttl = static_cast<std::uint8_t>(pkt.h.ttl - 1);
    return out.serialize();
}

} // namespace gatekit::gateway
