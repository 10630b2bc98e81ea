// On-path exhaustion audit: floods a device from its own LAN with
// synthetic traffic (UDP and TCP SYN binding exhaustion, port-collision
// storms, ICMP query-id and unknown-protocol side-table floods) plus a
// reboot mid-measurement, and checks that the device degrades
// gracefully: caps enforced, no state table grows without bound, and the
// pre-established victim flow keeps translating per the device's profile
// policy. Every datagram is injected at the testbed's LAN port and takes
// the path real traffic takes: the gateway's frame hook, TTL handling,
// the FORWARD chain, the NAT and the forwarding queue. This battery is a
// capacity/graceful-degradation audit from an attacker beside the victim,
// not a threat model; the off-path ReDAN remote-DoS scenarios (spoofed
// traffic through the WAN-side packet path) live in harness/attacks.hpp
// and bench/attack_matrix.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/testbed.hpp"

namespace gatekit::harness {

struct AdversaryResult {
    std::string device;
    std::size_t udp_cap = 0;
    std::size_t tcp_cap = 0;
    std::size_t udp_peak = 0;
    std::size_t tcp_peak = 0;
    std::size_t icmp_peak = 0;
    std::size_t ip_only_peak = 0;
    std::uint64_t udp_accepted = 0;
    std::uint64_t udp_refused = 0;
    std::uint64_t tcp_accepted = 0;
    std::uint64_t tcp_refused = 0;
    int collision_accepted = 0;
    int collision_unique = 0; ///< distinct external ports among accepted
    bool victim_survived_flood = false;
    bool reboot_flushed = false;
    bool recovered_after_reboot = false;
    /// Human-readable invariant violations; empty means the device
    /// degraded gracefully under every scenario.
    std::vector<std::string> failures;

    bool ok() const { return failures.empty(); }
};

/// Run the full battery against testbed slot `slot`. Synchronous: drives
/// the event loop internally, pausing after every burst of flood
/// datagrams. Counts come from the gateway's tables and NAT statistics
/// and from what reaches the test server and the victim. The testbed
/// must be started and the slot ready. Leaves the device's translation
/// state flushed.
AdversaryResult run_adversary(Testbed& tb, int slot);

} // namespace gatekit::harness
