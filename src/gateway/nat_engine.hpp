// The NAPT translation engine. Faithful to how consumer gateways actually
// behave: correct devices rewrite addresses/ports and fix every checksum;
// buggy ones (per DeviceProfile knobs) skip embedded-header rewrites,
// leave stale checksums inside ICMP payloads, convert ICMP errors into
// bogus TCP RSTs, or fall back to IP-only translation for transports they
// do not understand. All of Table 2 is generated by these code paths.
// Every protocol is translated in place on a PacketView by the cores the
// CGN shares, driven by this device's profile: UDP/TCP by L4Translator,
// ICMP by IcmpTranslator; unknown transports get the IP-only rewrite
// below.
#pragma once

#include <map>

#include "gateway/binding_table.hpp"
#include "gateway/icmp_translator.hpp"
#include "gateway/l4_translator.hpp"
#include "gateway/profile.hpp"

namespace gatekit::gateway {

class NatEngine {
public:
    NatEngine(sim::EventLoop& loop, const DeviceProfile& profile);

    /// Configure after DHCP: the address LAN flows are translated to.
    void set_addresses(net::Ipv4Addr wan_addr) { wan_addr_ = wan_addr; }
    bool configured() const { return !wan_addr_.is_unspecified(); }
    net::Ipv4Addr wan_addr() const { return wan_addr_; }

    /// Translate a LAN->WAN datagram of any protocol in place. Drops
    /// (no binding capacity, unknown protocol policy, ...) are counted.
    /// TTL expiry is the gateway's, checked before translation.
    L4Verdict outbound(net::PacketView& v);
    /// WAN->LAN counterpart, for datagrams addressed to the WAN address
    /// (the untranslated plain-router fallback toward LAN hosts is the
    /// gateway's). kNotOurs leaves the packet untouched for the gateway's
    /// own stack; other drops were the NAT's (and counted).
    L4Verdict inbound(net::PacketView& v);

    /// Hairpin a LAN->WAN-address datagram back into the LAN in place
    /// (UDP only): true when `v` was rewritten toward the target's
    /// internal endpoint; false (the device does not hairpin, or no
    /// binding matches the targeted external port) leaves it untouched.
    bool hairpin(net::PacketView& v);

    BindingTable& udp_table() { return udp_; }
    BindingTable& tcp_table() { return tcp_; }

    /// Side-table occupancy, for the adversarial exhaustion audits: both
    /// are hard-capped, so a flood of distinct ICMP query ids or unknown-
    /// protocol remotes cannot grow translation state without bound.
    std::size_t icmp_query_count() const { return icmp_.query_count(); }
    std::size_t ip_only_count() const { return ip_only_.size(); }

    /// Forget all translation state (UDP/TCP bindings, ICMP query ids,
    /// IP-only mappings) — the reboot component of a GatewayFault.
    void flush();

    struct Stats {
        std::uint64_t dropped_capacity = 0;
        std::uint64_t dropped_policy = 0;
        std::uint64_t icmp_translated = 0;
        std::uint64_t icmp_dropped = 0;
        // Hardening verdicts (off-path attack battery). All stay zero
        // while the profile's hardening knobs are at their defaults; the
        // supervisor reads them to annotate attack-induced failures.
        std::uint64_t icmp_rate_limited = 0;
        std::uint64_t icmp_quote_rejected = 0;
        std::uint64_t icmp_teardowns = 0;
        std::uint64_t wan_syn_dropped = 0;
        std::uint64_t wan_syn_tarpitted = 0;
        std::uint64_t wan_stray_dropped = 0;
    };
    const Stats& stats() const { return stats_; }

    /// Register drop/ICMP counters and the per-policy UDP timeout hit
    /// counters under `device`, and bind both binding tables. All
    /// instrumentation stays branch-on-null no-ops until this is called.
    void bind_observability(obs::MetricsRegistry& reg,
                            const std::string& device);

private:
    /// Bump the counters a drop verdict stands for.
    void count_drop(L4Verdict v);
    /// Unknown transports per UnknownProtocolPolicy: dropped, forwarded
    /// as by a plain router, or IP-only translated (addresses and the IP
    /// checksum only; the transport bytes cross untouched).
    L4Verdict outbound_unknown(net::PacketView& v);
    L4Verdict inbound_unknown(net::PacketView& v);

    sim::EventLoop& loop_;
    const DeviceProfile& profile_;
    BindingTable udp_;
    BindingTable tcp_;
    L4Translator l4_;
    IcmpTranslator icmp_;
    net::Ipv4Addr wan_addr_;
    Stats stats_;

    // Instrumentation; all nullptr until bind_observability.
    obs::Counter* m_drop_capacity_ = nullptr;
    obs::Counter* m_drop_policy_ = nullptr;
    obs::Counter* m_icmp_translated_ = nullptr;
    obs::Counter* m_icmp_dropped_ = nullptr;
    obs::Counter* m_icmp_rate_limited_ = nullptr;
    obs::Counter* m_icmp_quote_rejected_ = nullptr;
    obs::Counter* m_icmp_teardown_ = nullptr;
    obs::Counter* m_wan_syn_dropped_ = nullptr;
    obs::Counter* m_wan_syn_tarpitted_ = nullptr;
    obs::Counter* m_wan_stray_dropped_ = nullptr;

    // IP-only bindings for unknown transports: (proto, remote) -> internal.
    struct IpOnlyKey {
        std::uint8_t proto = 0;
        net::Ipv4Addr remote;
        friend constexpr auto operator<=>(const IpOnlyKey&, const IpOnlyKey&) =
            default;
    };
    struct IpOnlyBinding {
        net::Ipv4Addr internal;
        sim::TimePoint expires_at{};
    };
    std::map<IpOnlyKey, IpOnlyBinding> ip_only_;
};

} // namespace gatekit::gateway
