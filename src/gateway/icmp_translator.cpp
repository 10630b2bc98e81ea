#include "gateway/icmp_translator.hpp"

#include <algorithm>
#include <iterator>

#include "net/checksum.hpp"
#include "net/icmp.hpp"

namespace gatekit::gateway {

namespace {

constexpr sim::Duration kEchoTimeout = std::chrono::seconds(60);

std::uint16_t be16(std::span<const std::uint8_t> b, std::size_t off) {
    return static_cast<std::uint16_t>((b[off] << 8) | b[off + 1]);
}

/// The Table 2 kind of an error, or nullopt for a code no translation
/// set names: such an error is not the translator's to relay (a spoofed
/// error with a nonsense code must not ride a device's posture for a
/// real one).
std::optional<IcmpKind> classify(net::IcmpType type, std::uint8_t code) {
    using enum IcmpKind;
    // Indexed by code (net::icmp_code).
    constexpr IcmpKind unreachable[] = {NetUnreachable,   HostUnreachable,
                                        ProtoUnreachable, PortUnreachable,
                                        FragNeeded,       SourceRouteFailed};
    constexpr IcmpKind exceeded[] = {TtlExceeded, ReassemblyTimeExceeded};
    switch (type) {
    case net::IcmpType::DestUnreachable:
        if (code < std::size(unreachable)) return unreachable[code];
        return std::nullopt;
    case net::IcmpType::TimeExceeded:
        if (code < std::size(exceeded)) return exceeded[code];
        return std::nullopt;
    case net::IcmpType::SourceQuench:
        return SourceQuench;
    case net::IcmpType::ParamProblem:
        return ParamProblem;
    default:
        return std::nullopt;
    }
}

} // namespace

std::optional<IcmpQuote> IcmpQuote::of(const net::PacketView& v) {
    const auto q = v.payload().subspan(8);
    if (q.empty() || (q[0] >> 4) != 4) return std::nullopt;
    const std::size_t ihl = static_cast<std::size_t>(q[0] & 0xf) * 4;
    if (ihl < 20 || ihl > q.size()) return std::nullopt;
    const std::size_t total = be16(q, 2);
    if (total < ihl) return std::nullopt;
    return IcmpQuote(q, ihl, std::min(total, q.size()) - ihl);
}

bool IcmpQuote::complete() const {
    // RFC 792 quotes carry at least the first 8 transport bytes; a
    // shorter quote cannot be checked against a binding beyond the bare
    // port pair, which is exactly the sloppy acceptance attack class 4
    // exploits.
    if (l4_len_ < 8) return false;
    return protocol() != net::proto::kUdp || read16(ihl_ + 4) >= 8;
}

void IcmpQuote::rewrite(Half half, net::Ipv4Addr a,
                        std::optional<std::uint16_t> port,
                        const DeviceProfile& p) {
    const bool src = half == Half::kSource;
    const std::size_t ao = src ? 12 : 16;
    const std::uint32_t old_addr = addr(ao).value();
    write16(ao, static_cast<std::uint16_t>(a.value() >> 16));
    write16(ao + 2, static_cast<std::uint16_t>(a.value()));
    if (p.fix_embedded_ip_checksum)
        write16(10, net::checksum_update32(read16(10), old_addr, a.value()));
    if (!p.fix_embedded_transport) return;

    const std::size_t po = ihl_ + (src ? 0u : 2u);
    const std::uint16_t old_port = q_.size() >= po + 2 ? read16(po) : 0;
    const bool port_done = port && q_.size() >= po + 2;
    if (port_done) write16(po, *port);
    if (protocol() != net::proto::kUdp || q_.size() < ihl_ + 8) return;
    std::uint16_t ck = read16(ihl_ + 6);
    if (ck == 0) return; // the quoted datagram had no checksum
    ck = net::checksum_update32(ck, old_addr, a.value());
    if (port_done) ck = net::checksum_update16(ck, old_port, *port);
    write16(ihl_ + 6, ck == 0 ? 0xffff : ck);
}

bool EchoTable::add(net::Ipv4Addr internal, std::uint16_t id,
                    net::Ipv4Addr remote, sim::TimePoint now) {
    const Key key{internal, id, remote};
    if (!expires_.contains(key) && expires_.size() >= cap_) {
        std::erase_if(expires_, [now](const auto& e) { return now >= e.second; });
        if (expires_.size() >= cap_) return false;
    }
    expires_[key] = now + kEchoTimeout;
    return true;
}

std::optional<net::Ipv4Addr> EchoTable::querier(std::uint16_t id,
                                                net::Ipv4Addr remote,
                                                sim::TimePoint now) {
    for (auto it = expires_.begin(); it != expires_.end();) {
        if (now >= it->second) {
            it = expires_.erase(it);
            continue;
        }
        if (it->first.id == id && it->first.remote == remote)
            return it->first.internal;
        ++it;
    }
    return std::nullopt;
}

IcmpTranslator::IcmpTranslator(sim::EventLoop& loop,
                               const DeviceProfile& profile,
                               std::size_t echo_cap)
    : loop_(loop), profile_(profile), echo_(echo_cap) {}

bool IcmpTranslator::is_error(const net::PacketView& v) {
    if (v.protocol() != net::proto::kIcmp || v.payload().size() < 8)
        return false;
    net::IcmpMessage m;
    m.type = static_cast<net::IcmpType>(v.payload()[0]);
    return m.is_error();
}

L4Verdict IcmpTranslator::outbound(net::PacketView& v,
                                   net::Ipv4Addr external) {
    if (v.is_fragment()) return L4Verdict::kFragment;
    const auto icmp = v.payload();
    if (icmp.size() < 8) return L4Verdict::kMalformed;
    if (icmp[0] == static_cast<std::uint8_t>(net::IcmpType::Echo) &&
        !echo_.add(v.src(), be16(icmp, 4), v.dst(), loop_.now()))
        return L4Verdict::kNoCapacity;
    v.set_src(external);
    forward_ip(v, profile_, external);
    return L4Verdict::kForwarded;
}

bool IcmpTranslator::error_admitted() {
    const auto now = loop_.now();
    if (now >= err_window_ + std::chrono::seconds(1)) {
        err_window_ = now;
        err_count_ = 0;
    }
    if (err_count_ >= profile_.icmp_error_rate_limit) return false;
    ++err_count_;
    return true;
}

L4Verdict IcmpTranslator::inbound(net::PacketView& v, net::Ipv4Addr external,
                                  const Owner& owner, bool& torn_down) {
    if (v.is_fragment()) return L4Verdict::kFragment;
    const auto icmp = v.payload();
    if (icmp.size() < 8) return L4Verdict::kNotOurs;
    const auto relay_to = [&](net::Ipv4Addr internal) {
        v.set_dst(internal);
        forward_ip(v, profile_, external);
        return L4Verdict::kForwarded;
    };
    const auto type = static_cast<net::IcmpType>(icmp[0]);
    if (type == net::IcmpType::EchoReply) {
        const auto querier =
            echo_.querier(be16(icmp, 4), v.src(), loop_.now());
        // No query matches: the gateway's own ping.
        return querier ? relay_to(*querier) : L4Verdict::kNotOurs;
    }
    if (!is_error(v)) return L4Verdict::kNotOurs;

    // Hardened devices budget how many inbound WAN errors they process
    // per second; once spent, errors are dropped before any quote parse
    // or binding lookup, so an attacker's port sweep starves itself.
    if (profile_.icmp_error_rate_limit > 0 && !error_admitted())
        return L4Verdict::kRateLimited;
    auto q = IcmpQuote::of(v);
    if (!q || q->src() != external) return L4Verdict::kNotOurs;
    // A quote of a non-first fragment carries mid-stream payload where
    // the transport header would sit; reading those bytes as ports could
    // alias an unrelated live binding on attacker-chosen data. The quote
    // is unattributable, so drop the error outright.
    if (q->later_fragment()) return L4Verdict::kErrorDropped;
    const auto kind = classify(type, icmp[1]);
    if (!kind) return L4Verdict::kNotOurs;

    switch (q->protocol()) {
    case net::proto::kIcmp: {
        // Error about an echo query (Table 2 "ICMP: Host Unreach.").
        if (!profile_.icmp_query_errors_translated)
            return L4Verdict::kErrorDropped;
        const auto querier =
            q->transport_len() < 8
                ? std::nullopt
                : echo_.querier(q->echo_id(), q->dst(), loop_.now());
        // It quotes our address, so it is ours to drop when unattributable.
        if (!querier) return L4Verdict::kMalformed;
        q->rewrite(IcmpQuote::Half::kSource, *querier, std::nullopt,
                   profile_);
        v.refresh_icmp_checksum();
        return relay_to(*querier);
    }
    case net::proto::kUdp:
    case net::proto::kTcp:
        if (q->transport_len() < 4) return L4Verdict::kNotOurs;
        if (L4Translator* l4 = owner(q->src_port()))
            return l4->inbound_error(v, *q, *kind, external, torn_down);
        return L4Verdict::kNotOurs;
    default:
        return L4Verdict::kNotOurs;
    }
}

} // namespace gatekit::gateway
