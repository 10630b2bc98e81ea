// Campaign benchmark core: the three workloads, the per-device run (one
// one-device Testbed + Testrund per device, as a ShardScheduler shard
// builds it), the per-device results digest, and the per-layer trace
// that a traced run fills from the benchmark's own wrappers around the
// public API. Nothing here changes what the simulator does: the traced
// run only times calls it would make anyway.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness/testrund.hpp"

namespace campaign_bench {

enum class Workload { TcpBulk, PopTimeouts, Nat444Chain };

bool parse_workload(std::string_view name, Workload& out);
const char* workload_name(Workload w);

/// One roster entry. Calibrated workloads run profile `index` of
/// devices::all_profiles() under roster number index+1, so a device's
/// results do not depend on which seed drew it; pop_timeouts runs
/// devices::sample_gateway(seed, index) under number index+1.
struct DeviceSpec {
    int index = 0;
    std::uint64_t seed = 0;
};

/// Devices one round of `w` runs for `seed`, in run order.
std::vector<DeviceSpec> draw_roster(Workload w, std::uint64_t seed);

/// Key under which a device's digest is recorded: the profile tag for
/// calibrated workloads, "<seed>:<index>" for the sampled population.
std::string device_key(Workload w, const DeviceSpec& d);

/// The campaign every device of `w` runs.
gatekit::harness::CampaignConfig campaign_config(Workload w);

/// FNV-1a over the tag and, per planned unit, its name, status and
/// results_io payload. Equal digests mean equal measured results.
std::string results_digest(const gatekit::harness::DeviceResults& r,
                           const gatekit::harness::CampaignConfig& cfg);

/// Log-linear histogram of nanosecond durations (64 sub-buckets per
/// power of two, at most 1.6% wide) with in-bucket interpolation, so
/// millions of samples cost a fixed 30 KB. obs::LogHistogram reports
/// 12.5%-wide bucket edges, too coarse to show a per-frame change.
class NsHistogram {
public:
    void add(std::uint64_t ns);
    /// q in [0, 1]; 0 when empty.
    double quantile(double q) const;
    std::uint64_t count() const { return count_; }

private:
    static constexpr int kSub = 64;
    static constexpr int kBuckets = kSub + 58 * kSub;
    static int bucket(std::uint64_t ns);
    static std::uint64_t lower(int b);
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t count_ = 0;
};

/// Host time spent inside one wrapped call site.
struct SpanStats {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    NsHistogram ns;
    void add(std::uint64_t d) {
        ++calls;
        total_ns += d;
        ns.add(d);
    }
};

/// Per-layer counters and spans, summed over every device of a traced
/// round. Field comments name the source in the public API.
struct LayerTrace {
    SpanStats step;          ///< EventLoop::step() calls
    std::uint64_t tail_ns = 0; ///< bring-up tail drained by run_until
    std::uint64_t events = 0;      ///< EventLoop::events_processed()
    std::uint64_t pending_max = 0; ///< max EventLoop::pending() after a step
    std::uint64_t frames = 0;      ///< Link::frames_sent, every link, both sides
    std::uint64_t link_tx_drops = 0;
    SpanStats client_rx;     ///< client_trunk side A -> client NIC
    SpanStats server_rx;     ///< server_trunk side A -> server NIC
    SpanStats gw_lan_rx;     ///< slot.lan_link side A -> gateway LAN NIC
    SpanStats cgn_access_rx; ///< CGN access_link side A -> CGN access NIC
    std::uint64_t pool_acquires = 0, pool_hits = 0, pool_fallbacks = 0;
    std::uint64_t tcp_retransmits = 0;
    std::uint64_t nat_created = 0, nat_expired = 0, nat_refused = 0;
    std::uint64_t fwd_forwarded = 0, fwd_dropped = 0;
    std::uint64_t cgn_translated = 0, cgn_dropped = 0;
    std::uint64_t capture_frames = 0, capture_bytes = 0;
    std::vector<double> bringup_ms;
    std::map<std::string, std::vector<double>> unit_ms;
};

/// What one device's campaign produced and cost.
struct DeviceRun {
    std::string digest;
    int units = 0;
    int units_not_ok = 0;
    double setup_s = 0;    ///< profile + Testbed + devices + bring-up
    double campaign_s = 0; ///< Testrund campaign
    std::uint64_t frames = 0;
    std::uint64_t events = 0;
};

/// Build the device's one-device testbed, bring it up and run the
/// workload's campaign. With `trace` null this is exactly a shard's
/// run (start_and_wait + run_blocking); otherwise the loop is driven by
/// timed step() calls, the four NIC sinks are wrapped, observability is
/// attached, and the layer figures are added into `*trace`.
DeviceRun run_device(Workload w, const DeviceSpec& d, LayerTrace* trace);

} // namespace campaign_bench
