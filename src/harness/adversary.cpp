#include "harness/adversary.hpp"

#include <algorithm>
#include <set>

#include "gateway/home_gateway.hpp"
#include "harness/raw_datagrams.hpp"
#include "net/icmp.hpp"
#include "stack/udp_socket.hpp"

namespace gatekit::harness {

namespace {

using net::Ipv4Addr;

// Flood sizes. The UDP and TCP floods exceed the largest calibrated
// binding cap (2000), so every device hits its refusal path; the side
// tables (ICMP query ids, IP-only mappings) hard-cap at kSideTableCap.
constexpr int kUdpFlood = 2100;
constexpr int kTcpFlood = 2100;
constexpr int kCollisionHosts = 64; ///< internal hosts sharing one port
constexpr int kIcmpFlood = 1500;
constexpr int kIpOnlyFlood = 1500;
constexpr std::size_t kSideTableCap = 1024;

// Stall component of the mid-measurement reboot fault.
constexpr sim::Duration kRebootStall = std::chrono::milliseconds(50);

// Pacing: a short virtual-time gap after every 64 flood datagrams keeps
// the total flood time far below the shortest calibrated UDP timeout
// (30 s), so the victim binding cannot expire legitimately during the
// attack. A single probe, and the tail of a flood, get kSettle to cross
// the links and the forwarding queue.
constexpr int kBurst = 64;
constexpr sim::Duration kBurstGap = std::chrono::microseconds(500);
constexpr sim::Duration kSettle = std::chrono::milliseconds(20);

// Protocol number no gateway in the study understands; always takes the
// unknown-protocol path regardless of SCTP/DCCP support.
constexpr std::uint8_t kUnknownProto = 99;

// The flood remote: TEST-NET-3, routed nowhere inside the testbed, so
// flood datagrams die in the test server's forward path. Aimed at the
// server itself they would draw RSTs, Port Unreachables and echo replies
// that come back through the NAT and tear bindings down. The IP-only
// flood needs more distinct remotes than TEST-NET-3 holds; 11.0.0.0/8
// is routed nowhere either.
const Ipv4Addr kBlackhole{203, 0, 113, 99};
constexpr std::uint32_t kIpOnlyRemotes = 0x0b000001u;

// The victim's port on the test client, and the test-server ports with
// a sink socket open: the victim's remote and the collision storm's.
constexpr std::uint16_t kVictimPort = 45000;
constexpr std::uint16_t kVictimRemotePort = 7000;
constexpr std::uint16_t kStormPort = 9000;

} // namespace

AdversaryResult run_adversary(Testbed& tb, int slot) {
    auto& s = tb.slot(slot);
    auto& gw = *s.gw;
    auto& nat = gw.nat();
    auto& loop = tb.loop();
    auto& client = tb.client();
    auto& server = tb.server();
    const Ipv4Addr gw_lan = gw.lan_addr();

    AdversaryResult r;
    r.device = Testbed::device_label(s);
    r.udp_cap = nat.udp_table().capacity_limit();
    r.tcp_cap = nat.tcp_table().capacity_limit();

    const auto check = [&r](bool ok, std::string what) {
        if (!ok) r.failures.push_back(std::move(what));
    };

    // Attacker hosts live on the gateway's LAN subnet next to the real
    // client; flows are distinguished by port so sharing an address with
    // the victim is harmless.
    const std::uint32_t lan_net = s.client_addr.value() & 0xffffff00u;
    const auto attacker = [lan_net](int k) {
        return Ipv4Addr{lan_net | (2u + static_cast<std::uint32_t>(k) % 200u)};
    };
    const auto inject = [&](net::Bytes datagram) {
        client.send_raw(*s.client_if, std::move(datagram), gw_lan);
    };
    // Inject `n` datagrams at the LAN port in bursts, then let the tail
    // drain. Returns the peak of `occupancy`, sampled after every burst.
    const auto flood = [&](int n, auto make, auto occupancy) {
        std::size_t peak = occupancy();
        for (int k = 0; k < n; ++k) {
            inject(make(k));
            if ((k + 1) % kBurst == 0) {
                loop.run_for(kBurstGap);
                peak = std::max(peak, occupancy());
            }
        }
        loop.run_for(kSettle);
        return std::max(peak, occupancy());
    };

    // The test server's view: datagrams the gateway delivered to the
    // victim's remote, and the external ports of the collision storm.
    auto& remote_sink = server.udp_open(s.server_addr, kVictimRemotePort);
    auto& storm_sink = server.udp_open(s.server_addr, kStormPort);
    std::uint64_t at_remote = 0;
    std::uint16_t remote_saw_port = 0;
    std::vector<std::uint16_t> storm_ports;
    server.set_ip_observer([&](stack::Iface&, const net::Ipv4Packet& pkt,
                               std::span<const std::uint8_t>) {
        if (pkt.h.protocol != net::proto::kUdp || pkt.h.src != s.gw_wan_addr)
            return;
        try {
            const auto d =
                net::UdpDatagram::parse(pkt.payload, pkt.h.src, pkt.h.dst);
            if (d.dst_port == kVictimRemotePort) {
                ++at_remote;
                remote_saw_port = d.src_port;
            } else if (d.dst_port == kStormPort) {
                storm_ports.push_back(d.src_port);
            }
        } catch (const net::ParseError&) {
        }
    });
    // A LAN datagram from the client's `sport` to the victim's remote:
    // whether the gateway delivered it.
    const auto reaches_remote = [&](std::uint16_t sport) {
        const std::uint64_t before = at_remote;
        inject(raw_udp(s.client_addr, sport, s.server_addr, kVictimRemotePort));
        loop.run_for(kSettle);
        return at_remote > before;
    };

    // --- Phase 1: victim flow, then a UDP binding-exhaustion flood. ---
    auto& victim = client.udp_open(s.client_addr, kVictimPort);
    std::uint64_t victim_rx = 0;
    victim.set_receive_handler([&victim_rx](net::Endpoint,
                                            std::span<const std::uint8_t>,
                                            const net::Ipv4Packet&) {
        ++victim_rx;
    });
    const bool victim_up = reaches_remote(kVictimPort);
    check(victim_up, "victim flow refused before flood");
    const std::uint16_t victim_ext = remote_saw_port;
    // The remote's reply, sent from the test server's vlan-if to the
    // victim's external port: whether it reached the victim's socket.
    const auto reply_reaches_victim = [&] {
        const std::uint64_t before = victim_rx;
        server.send_raw(*s.server_if,
                        raw_udp(s.server_addr, kVictimRemotePort,
                                s.gw_wan_addr, victim_ext),
                        s.gw_wan_addr);
        loop.run_for(kSettle);
        return victim_rx > before;
    };

    const std::uint64_t capacity0 = nat.stats().dropped_capacity;
    const std::size_t udp0 = nat.udp_table().size();
    r.udp_peak = flood(
        kUdpFlood,
        [&](int k) {
            return raw_udp(attacker(k), static_cast<std::uint16_t>(1024 + k),
                           kBlackhole, 53);
        },
        [&] { return nat.udp_table().size(); });
    r.udp_accepted = nat.udp_table().size() - udp0;
    r.udp_refused = nat.stats().dropped_capacity - capacity0;
    check(r.udp_peak <= r.udp_cap, "UDP table exceeded capacity under flood");
    check(r.udp_refused > 0, "flood above capacity was never refused");
    check(r.udp_accepted + r.udp_refused ==
              static_cast<std::uint64_t>(kUdpFlood),
          "UDP flood accounting mismatch");

    // The victim's established binding must survive: its remote's reply
    // still reaches it while the table is saturated.
    r.victim_survived_flood = victim_up && reply_reaches_victim();
    check(r.victim_survived_flood, "established victim flow lost under flood");

    // --- Phase 2: reboot mid-measurement (flush + stall). ---
    gw.inject_fault(gateway::GatewayFault{true, kRebootStall});
    r.reboot_flushed = nat.udp_table().size() == 0 &&
                       nat.tcp_table().size() == 0 &&
                       nat.icmp_query_count() == 0 && nat.ip_only_count() == 0;
    check(r.reboot_flushed, "reboot did not flush translation state");
    // While stalled the device is dead to the wire: a new flow's first
    // datagram is swallowed and opens no binding.
    check(!reaches_remote(kVictimPort + 2) && nat.udp_table().size() == 0,
          "reboot stall did not engage");
    loop.run_for(kRebootStall);
    // The victim's binding is gone: once the stall is over, its remote's
    // reply to the old external port must no longer reach the LAN.
    if (victim_up)
        check(!reply_reaches_victim(), "stale binding survived reboot");
    r.recovered_after_reboot = reaches_remote(kVictimPort + 1);
    check(r.recovered_after_reboot, "NAT did not recover after reboot");

    // --- Phase 3: port-collision storm. Distinct internal hosts all use
    // the same source port; accepted flows must map to distinct external
    // ports (no aliasing) whatever the allocation policy. ---
    const std::size_t storm_peak = flood(
        kCollisionHosts,
        [&](int h) {
            return raw_udp(attacker(h), 7777, s.server_addr, kStormPort);
        },
        [&] { return nat.udp_table().size(); });
    r.collision_accepted = static_cast<int>(storm_ports.size());
    r.collision_unique = static_cast<int>(
        std::set<std::uint16_t>(storm_ports.begin(), storm_ports.end())
            .size());
    check(r.collision_accepted > 0, "collision storm: nothing accepted");
    check(r.collision_unique == r.collision_accepted,
          "collision storm: external ports aliased");
    check(storm_peak <= r.udp_cap,
          "UDP table exceeded capacity in collision storm");

    // --- Phase 4: TCP SYN flood against the transitory-binding cap. ---
    const std::uint64_t capacity1 = nat.stats().dropped_capacity;
    const std::size_t tcp0 = nat.tcp_table().size();
    r.tcp_peak = flood(
        kTcpFlood,
        [&](int k) {
            return raw_tcp(attacker(k), static_cast<std::uint16_t>(1024 + k),
                           kBlackhole, 80, /*syn=*/true, false, false);
        },
        [&] { return nat.tcp_table().size(); });
    r.tcp_accepted = nat.tcp_table().size() - tcp0;
    r.tcp_refused = nat.stats().dropped_capacity - capacity1;
    check(r.tcp_peak <= r.tcp_cap, "TCP table exceeded capacity under flood");
    check(r.tcp_refused > 0, "SYN flood above capacity was never refused");

    // --- Phase 5: side-table floods. Distinct echo ids and distinct
    // unknown-protocol remotes; both tables are hard-capped at 1024 and
    // must refuse (not grow) beyond it. ---
    r.icmp_peak = flood(
        kIcmpFlood,
        [&](int k) {
            const auto echo = net::IcmpMessage::make_echo(
                false, static_cast<std::uint16_t>(k), 1);
            return raw_ip(s.client_addr, kBlackhole, net::proto::kIcmp,
                          echo.serialize());
        },
        [&] { return nat.icmp_query_count(); });
    check(r.icmp_peak <= kSideTableCap,
          "ICMP query table exceeded its hard cap");

    r.ip_only_peak = flood(
        kIpOnlyFlood,
        [&](int k) {
            return raw_ip(
                s.client_addr,
                Ipv4Addr{kIpOnlyRemotes + static_cast<std::uint32_t>(k)},
                kUnknownProto, {0x00, 0x01, 0x02, 0x03});
        },
        [&] { return nat.ip_only_count(); });
    check(r.ip_only_peak <= kSideTableCap,
          "IP-only table exceeded its hard cap");

    // Leave the slot clean for whatever runs next.
    server.set_ip_observer({});
    server.udp_close(remote_sink);
    server.udp_close(storm_sink);
    client.udp_close(victim);
    nat.flush();
    loop.run_for(std::chrono::milliseconds(1));
    return r;
}

} // namespace gatekit::harness
