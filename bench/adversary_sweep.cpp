// adversary_sweep: graceful degradation under hostile workloads. Runs
// the binding-exhaustion audit (harness/adversary.hpp), injected at each
// device's LAN port, against every calibrated device: UDP and TCP SYN
// floods past the binding cap, a port-collision storm, ICMP query-id and
// unknown-protocol side-table floods, and a reboot injected
// mid-measurement. For the off-path ReDAN remote-DoS scenarios delivered
// through the real WAN-side packet path, see bench/attack_matrix.cpp. A
// device passes when its caps hold, no state table grows without bound,
// the pre-established victim flow keeps translating through the flood,
// and the NAT recovers after the reboot.
//
// Ends with a supervised campaign under deliberately impossible per-unit
// deadline budgets: every unit must come back classified (degraded /
// gave_up / quarantined) and the campaign itself must terminate instead
// of wedging on the first slow unit.
//
// Exit code 0 = every device degraded gracefully and every supervised
// unit was classified; 1 = not.
#include <iomanip>

#include "bench_common.hpp"
#include "harness/adversary.hpp"

using namespace gatekit;
using namespace gatekit::bench;

int main() {
    sim::EventLoop loop;
    ObsSession obs(loop); // declared before tb: components keep pointers
    harness::Testbed tb(loop);
    const auto& profiles = devices::all_profiles();
    const int limit = env_device_limit(static_cast<int>(profiles.size()));
    int added = 0;
    for (const auto& profile : profiles) {
        if (limit > 0 && added >= limit) break;
        tb.add_device(profile);
        ++added;
    }
    obs.attach(tb);
    std::cerr << "[adversary_sweep] bringing up testbed with " << added
              << " devices...\n";
    tb.start_and_wait();

    report::CsvWriter csv({"tag", "udp_cap", "udp_peak", "udp_refused",
                           "tcp_peak", "tcp_refused", "collision_unique",
                           "icmp_peak", "ip_only_peak", "victim_ok",
                           "reboot_ok", "recover_ok", "ok"});
    std::cout << "adversary_sweep: binding exhaustion + reboot battery\n";
    std::cout << std::left << std::setw(10) << "device" << std::right
              << std::setw(6) << "cap" << std::setw(8) << "udp_pk"
              << std::setw(8) << "tcp_pk" << std::setw(8) << "refuse"
              << std::setw(8) << "collis" << std::setw(8) << "icmp_pk"
              << std::setw(7) << "victim" << std::setw(7) << "reboot"
              << "  verdict\n";

    bool all_ok = true;
    for (int i = 0; i < static_cast<int>(tb.device_count()); ++i) {
        const auto r = harness::run_adversary(tb, i);
        all_ok = all_ok && r.ok();
        std::cout << std::left << std::setw(10) << r.device << std::right
                  << std::setw(6) << r.udp_cap << std::setw(8) << r.udp_peak
                  << std::setw(8) << r.tcp_peak << std::setw(8)
                  << r.udp_refused << std::setw(8) << r.collision_unique
                  << std::setw(8) << r.icmp_peak << std::setw(7)
                  << (r.victim_survived_flood ? "ok" : "LOST") << std::setw(7)
                  << (r.reboot_flushed && r.recovered_after_reboot ? "ok"
                                                                   : "FAIL")
                  << "  " << (r.ok() ? "PASS" : "FAIL") << "\n";
        for (const auto& f : r.failures)
            std::cout << "    ! " << f << "\n";
        csv.add_row({r.device, std::to_string(r.udp_cap),
                     std::to_string(r.udp_peak), std::to_string(r.udp_refused),
                     std::to_string(r.tcp_peak), std::to_string(r.tcp_refused),
                     std::to_string(r.collision_unique),
                     std::to_string(r.icmp_peak),
                     std::to_string(r.ip_only_peak),
                     r.victim_survived_flood ? "1" : "0",
                     r.reboot_flushed ? "1" : "0",
                     r.recovered_after_reboot ? "1" : "0",
                     r.ok() ? "1" : "0"});
    }

    // Supervised campaign under impossible budgets: a 2-minute hard
    // deadline can never fit a UDP timeout search, so every unit must be
    // cut off and classified, consecutive failures must quarantine the
    // device, and the campaign must still run to completion.
    std::cerr << "[adversary_sweep] supervised impossible-deadline demo...\n";
    harness::CampaignConfig demo;
    demo.udp1 = demo.udp2 = demo.udp3 = true;
    demo.udp.repetitions = 2;
    demo.supervisor.hard_deadline = std::chrono::minutes(2);
    demo.supervisor.hard_grace = std::chrono::seconds(30);
    demo.supervisor.max_attempts = 1;
    demo.supervisor.quarantine_after = 2;
    harness::Testrund rund(tb);
    const auto supervised = rund.run_blocking(demo);

    bool demo_ok = supervised.size() == tb.device_count();
    int n_cut = 0, n_quarantined = 0;
    for (const auto& dev : supervised) {
        demo_ok = demo_ok && dev.units.size() == 3;
        for (const auto& u : dev.units) {
            switch (u.status) {
            case harness::UnitStatus::Ok:
                break;
            case harness::UnitStatus::Degraded:
            case harness::UnitStatus::GaveUp:
                ++n_cut;
                demo_ok = demo_ok && !u.reason.empty();
                break;
            case harness::UnitStatus::Quarantined:
                ++n_quarantined;
                demo_ok = demo_ok && !u.reason.empty();
                break;
            }
            demo_ok = demo_ok && u.t_end_ns >= u.t_start_ns;
        }
    }
    demo_ok = demo_ok && n_cut > 0 && n_quarantined > 0;
    all_ok = all_ok && demo_ok;
    std::cout << "\nsupervised demo: campaign terminated, " << n_cut
              << " units cut off, " << n_quarantined << " quarantined -> "
              << (demo_ok ? "PASS" : "FAIL") << "\n";

    std::cout << "\nadversary_sweep overall: " << (all_ok ? "PASS" : "FAIL")
              << "\n";
    maybe_csv("adversary_sweep", csv);
    obs.finish();
    return all_ok ? 0 : 1;
}
