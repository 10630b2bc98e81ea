// campaign_bench: runs one campaign workload for a fixed host time,
// checks every device's results digest, and prints the metrics as one
// JSON line (end-to-end metrics untraced, per-layer metrics with
// --trace 1). See campaign_bench/doc/README.md.
//
//   campaign_bench --workload <tcp_bulk|pop_timeouts|nat444_chain>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--digests <file>] [--record]
//
// --record prints "<workload> <key> <digest>" lines for the digest file
// instead of measuring: every calibrated device for tcp_bulk and
// nat444_chain, the seed's roster for pop_timeouts.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign.hpp"
#include "devices/profiles.hpp"

using namespace campaign_bench;
using Clock = std::chrono::steady_clock;

namespace {

struct Args {
    Workload workload = Workload::TcpBulk;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool record = false;
    std::string digests;
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "campaign_bench: " << why
              << "\nusage: campaign_bench --workload <tcp_bulk|pop_timeouts|"
                 "nat444_chain> --seed <n> --seconds <s> --trace <0|1> "
                 "[--digests <file>] [--record]\n";
    std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t& out) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
    out = v;
    return true;
}

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--record") {
            a.record = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + flag);
        const char* v = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            if (!parse_workload(v, a.workload))
                usage(std::string("unknown workload '") + v + "'");
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parse_u64(v, a.seed)) usage("bad --seed");
        } else if (flag == "--seconds") {
            if (!parse_u64(v, n) || n == 0 || n > 3600)
                usage("bad --seconds");
            a.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (!parse_u64(v, n) || n > 1) usage("bad --trace");
            a.trace = n == 1;
        } else if (flag == "--digests") {
            a.digests = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload) usage("--workload is required");
    return a;
}

/// Recorded digests for one workload: key -> digest.
std::map<std::string, std::string> load_digests(const std::string& path,
                                                Workload w) {
    std::map<std::string, std::string> out;
    if (path.empty()) return out;
    std::ifstream in(path);
    if (!in) {
        std::cerr << "campaign_bench: cannot read digests '" << path << "'\n";
        std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::string workload, key, digest;
        if (!(fields >> workload >> key >> digest)) {
            std::cerr << "campaign_bench: bad digest line '" << line << "'\n";
            std::exit(2);
        }
        if (workload == workload_name(w)) out[key] = digest;
    }
    return out;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Linear-interpolated quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Peak resident memory in MB since the last reset_peak_rss() (VmHWM),
/// or of the whole process where /proc/self/status cannot be read.
double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Restarts the peak at the current resident memory (Linux clear_refs),
/// so the reference work's memory does not count as a device's.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Checks each device's digest against the recorded one, or — for a
/// key with no recording — against the first digest this run saw.
class DigestCheck {
public:
    explicit DigestCheck(std::map<std::string, std::string> recorded)
        : expected_(std::move(recorded)) {}

    /// True when `digest` is the expected one for `key`.
    bool check(const std::string& key, const std::string& digest) {
        const auto it = expected_.emplace(key, digest).first;
        if (it->second == digest) return true;
        std::cerr << "campaign_bench: digest mismatch for " << key
                  << ": got " << digest << ", expected " << it->second
                  << "\n";
        return false;
    }

private:
    std::map<std::string, std::string> expected_;
};

/// Keeps the reference work's result live.
volatile std::uint64_t reference_sink = 0;

struct Tally {
    long long attempted = 0;
    long long failed = 0;

    void add(const DeviceRun& run, bool digest_ok) {
        attempted += run.units;
        failed += digest_ok ? run.units_not_ok : run.units;
    }
};

/// Host seconds of the reference work on a host running at the speed
/// the end-to-end times are scaled to.
constexpr double kReferenceS = 0.014;

/// Reference work: 40000 simulated frames, each popped from a timer
/// heap, allocated, copied, checksummed, looked up in a hash table and
/// kept in a ring of the last 16384 copies (about 19 MB), the
/// simulator's mix. On a shared host the simulator's speed swings by up
/// to 2.5x over minutes with other tenants' cache and memory traffic,
/// while an ALU loop barely moves; this work slows with it, the closer
/// the more memory it keeps live. It is fixed code of the benchmark, so
/// a change to the program never changes its time.
std::uint64_t reference_work() {
    std::uint64_t state = 12345, acc = 0;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        timers;
    for (int i = 0; i < 2048; ++i) timers.push(next() % 1000000);
    std::unordered_map<std::uint64_t, std::uint64_t> bindings;
    for (int i = 0; i < 4096; ++i) bindings[next() % 65536] = i;
    std::vector<std::unique_ptr<std::uint8_t[]>> ring(16384);
    std::uint8_t payload[1500];
    for (auto& b : payload) b = static_cast<std::uint8_t>(next());
    for (int f = 0; f < 40000; ++f) {
        const std::uint64_t now = timers.top();
        timers.pop();
        timers.push(now + 1 + next() % 5000);
        const std::size_t len = (f & 3) ? 1500 : 64;
        auto frame = std::make_unique<std::uint8_t[]>(len);
        std::memcpy(frame.get(), payload, len);
        const auto it = bindings.find(next() % 65536);
        if (it != bindings.end()) acc += it->second;
        for (std::size_t k = 0; k < len; k += 8) acc += frame[k];
        auto copy = std::make_unique<std::uint8_t[]>(len);
        std::memcpy(copy.get(), frame.get(), len);
        ring[static_cast<std::size_t>(f) % ring.size()] = std::move(copy);
    }
    return acc;
}

/// Host seconds of devices between two runs of the reference work, each
/// of which scales every device since the last: it runs after each
/// calibrated device and after every few hundred sampled gateways.
constexpr double kReferenceEveryS = 0.1;

/// Times of one roster position over the run's rounds, each scaled by
/// kReferenceS over the time of the reference work that ran next, so a
/// slow phase of the host cancels out. Slow phases also come in bursts
/// shorter than a round, so each device's median over rounds is
/// steadier again than the median of round totals.
struct DeviceTimes {
    std::vector<double> setup_s;
    std::vector<double> campaign_s;
    std::vector<double> wall_s; ///< the whole run_device call, teardown too
    std::vector<double> reference_s; ///< unscaled
    std::uint64_t frames = 0;
    double peak_rss_mb = 0; ///< highest over the run's untraced rounds
};

/// One pass over the roster, cut short after the device that ends at or
/// past `stop_at`. Untraced (`trace` null), appends each device's scaled
/// times to `times`, one entry per roster position. Returns the summed
/// unscaled campaign time.
double run_round(Workload w, const std::vector<DeviceSpec>& roster,
                 LayerTrace* trace, DigestCheck& digests, Tally& tally,
                 std::vector<DeviceTimes>& times, Clock::time_point stop_at) {
    struct Unscaled {
        std::size_t pos;
        double setup_s, campaign_s, wall_s;
    };
    std::vector<Unscaled> unscaled;
    auto last_reference = Clock::now();
    auto run_reference = [&] {
        const auto t0 = Clock::now();
        reference_sink = reference_work();
        last_reference = Clock::now();
        malloc_trim(0); // hand the reference's memory back
        const double reference =
            std::chrono::duration<double>(last_reference - t0).count();
        const double scale = kReferenceS / reference;
        for (const Unscaled& u : unscaled) {
            DeviceTimes& t = times[u.pos];
            t.setup_s.push_back(u.setup_s * scale);
            t.campaign_s.push_back(u.campaign_s * scale);
            t.wall_s.push_back(u.wall_s * scale);
            t.reference_s.push_back(reference);
        }
        unscaled.clear();
    };

    double campaign_s = 0;
    for (std::size_t i = 0; i < roster.size(); ++i) {
        const DeviceSpec& d = roster[i];
        if (trace == nullptr) reset_peak_rss();
        const auto t0 = Clock::now();
        const DeviceRun run = run_device(w, d, trace);
        const auto t1 = Clock::now();
        tally.add(run, digests.check(device_key(w, d), run.digest));
        campaign_s += run.campaign_s;
        if (trace != nullptr) continue;
        unscaled.push_back(Unscaled{
            i, run.setup_s, run.campaign_s,
            std::chrono::duration<double>(t1 - t0).count()});
        times[i].frames = run.frames;
        times[i].peak_rss_mb = std::max(times[i].peak_rss_mb, peak_rss_mb());
        if (std::chrono::duration<double>(t1 - last_reference).count() >=
            kReferenceEveryS)
            run_reference();
        if (t1 >= stop_at) break;
    }
    if (!unscaled.empty()) run_reference();
    return campaign_s;
}

class JsonMetrics {
public:
    void add(const std::string& name, double value, const char* unit) {
        char buf[64];
        const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
        if (!body_.empty()) body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + std::string(buf, end) +
                 ", \"unit\": \"" + unit + "\"}";
        std::printf("%-34s %18.6f %s\n", name.c_str(), value, unit);
    }
    const std::string& body() const { return body_; }

private:
    std::string body_;
};

void span_metrics(JsonMetrics& m, const std::string& prefix,
                  const SpanStats& s, double per_round) {
    m.add(prefix + "_s", static_cast<double>(s.total_ns) / 1e9 / per_round,
          "s");
    m.add(prefix + "_ns_p50", s.ns.quantile(0.50), "ns");
    m.add(prefix + "_ns_p99", s.ns.quantile(0.99), "ns");
    m.add(prefix + "_frames", static_cast<double>(s.calls) / per_round,
          "count");
}

/// Per-layer metrics, per traced round. Counts repeat exactly from
/// round to round; times are the mean over traced rounds.
void layer_metrics(JsonMetrics& m, const LayerTrace& t, double rounds,
                   double overhead) {
    const double span_ns =
        static_cast<double>(t.client_rx.total_ns + t.server_rx.total_ns +
                            t.gw_lan_rx.total_ns + t.cgn_access_rx.total_ns);
    const double busy_ns = static_cast<double>(t.step.total_ns + t.tail_ns);
    const auto per = [rounds](std::uint64_t v) {
        return static_cast<double>(v) / rounds;
    };
    m.add("sim.events", per(t.events), "count");
    m.add("sim.events_per_frame",
          t.frames ? static_cast<double>(t.events) /
                         static_cast<double>(t.frames)
                   : 0.0,
          "ratio");
    m.add("sim.step_ns_p50", t.step.ns.quantile(0.50), "ns");
    m.add("sim.step_ns_p99", t.step.ns.quantile(0.99), "ns");
    m.add("sim.pending_max", static_cast<double>(t.pending_max), "count");
    m.add("sim.busy_s", busy_ns / 1e9 / rounds, "s");
    m.add("sim.link_tx_drops", per(t.link_tx_drops), "count");
    m.add("sim.residual_s", (busy_ns - span_ns) / 1e9 / rounds, "s");
    span_metrics(m, "stack.client_rx", t.client_rx, rounds);
    span_metrics(m, "stack.server_rx", t.server_rx, rounds);
    m.add("stack.tcp_retransmits", per(t.tcp_retransmits), "count");
    m.add("net.pool_hit_ratio",
          t.pool_acquires ? static_cast<double>(t.pool_hits) /
                                static_cast<double>(t.pool_acquires)
                          : 0.0,
          "ratio");
    m.add("net.pool_fallbacks", per(t.pool_fallbacks), "count");
    span_metrics(m, "gateway.lan_rx", t.gw_lan_rx, rounds);
    m.add("gateway.nat_created", per(t.nat_created), "count");
    m.add("gateway.nat_expired", per(t.nat_expired), "count");
    m.add("gateway.nat_refused", per(t.nat_refused), "count");
    m.add("gateway.fwd_forwarded", per(t.fwd_forwarded), "count");
    m.add("gateway.fwd_dropped", per(t.fwd_dropped), "count");
    span_metrics(m, "gateway.cgn.access_rx", t.cgn_access_rx, rounds);
    m.add("gateway.cgn.translated", per(t.cgn_translated), "count");
    m.add("gateway.cgn.dropped", per(t.cgn_dropped), "count");
    m.add("harness.bringup_ms_p50", quantile(t.bringup_ms, 0.50), "ms");
    m.add("harness.bringup_ms_p99", quantile(t.bringup_ms, 0.99), "ms");
    // The units of the gated workloads always, 0 where not run.
    std::set<std::string> units{"udp1", "tcp2", "tcp4"};
    for (const auto& entry : t.unit_ms) units.insert(entry.first);
    for (const auto& unit : units) {
        const auto it = t.unit_ms.find(unit);
        m.add("harness.unit_ms_p50." + unit,
              it == t.unit_ms.end() ? 0.0 : median(it->second), "ms");
    }
    m.add("pcap.capture_frames", per(t.capture_frames), "count");
    m.add("pcap.capture_mb", per(t.capture_bytes) / 1e6, "MB");
    m.add("trace.overhead", overhead, "ratio");
}

int record(const Args& a) {
    std::vector<DeviceSpec> roster;
    if (a.workload == Workload::PopTimeouts) {
        roster = draw_roster(a.workload, a.seed);
    } else {
        for (std::size_t i = 0; i < gatekit::devices::all_profiles().size();
             ++i)
            roster.push_back(DeviceSpec{static_cast<int>(i), 0});
    }
    for (const auto& d : roster) {
        const DeviceRun run = run_device(a.workload, d, nullptr);
        if (run.units_not_ok != 0) {
            std::cerr << "campaign_bench: " << device_key(a.workload, d)
                      << " has units that are not ok\n";
            return 1;
        }
        std::printf("%s %s %s\n", workload_name(a.workload),
                    device_key(a.workload, d).c_str(), run.digest.c_str());
        std::fprintf(stderr, "%s: %.1f ms setup, %.1f ms campaign, %llu "
                     "frames, %llu events\n",
                     device_key(a.workload, d).c_str(), run.setup_s * 1e3,
                     run.campaign_s * 1e3,
                     static_cast<unsigned long long>(run.frames),
                     static_cast<unsigned long long>(run.events));
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const Args a = parse_args(argc, argv);
    try {
        if (a.record) return record(a);
        DigestCheck digests(load_digests(a.digests, a.workload));
        const auto roster = draw_roster(a.workload, a.seed);
        Tally tally;
        std::vector<DeviceTimes> plain(roster.size());
        double plain_s = 0, traced_s = 0;
        std::size_t rounds = 0;
        LayerTrace layers;
        const auto start = Clock::now();
        auto elapsed = [&] {
            return std::chrono::duration<double>(Clock::now() - start)
                .count();
        };
        // Untraced rounds after the first stop at --seconds even in the
        // middle, since every device figure is a median of its own;
        // traced figures are per whole round.
        const auto end =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(a.seconds));
        do {
            plain_s += run_round(
                a.workload, roster, nullptr, digests, tally, plain,
                a.trace || rounds == 0 ? Clock::time_point::max() : end);
            if (a.trace)
                traced_s += run_round(a.workload, roster, &layers, digests,
                                      tally, plain, Clock::time_point::max());
            ++rounds;
        } while (elapsed() < a.seconds);

        std::printf("workload %s seed %llu: %zu devices x %zu rounds\n",
                    workload_name(a.workload),
                    static_cast<unsigned long long>(a.seed), roster.size(),
                    rounds);
        JsonMetrics m;
        if (a.trace) {
            layer_metrics(m, layers, static_cast<double>(rounds),
                          traced_s / plain_s);
            std::vector<double> reference;
            for (const auto& t : plain)
                reference.insert(reference.end(), t.reference_s.begin(),
                                 t.reference_s.end());
            m.add("host.reference_ms_p50", median(reference) * 1e3, "ms");
        } else {
            // One round's scaled figures, each device at its median over
            // rounds.
            double setup = 0, wall = 0, campaign = 0, frames = 0, rss = 0;
            std::vector<double> device_ms;
            for (const auto& t : plain) {
                setup += median(t.setup_s);
                campaign += median(t.campaign_s);
                wall += median(t.wall_s);
                frames += static_cast<double>(t.frames);
                rss = std::max(rss, t.peak_rss_mb);
                device_ms.push_back(median(t.wall_s) * 1e3);
            }
            m.add("setup_s", setup, "s");
            m.add("wall_s", wall, "s");
            m.add("frames_per_s", frames / campaign, "1/s");
            m.add("devices_per_s", static_cast<double>(roster.size()) / wall,
                  "1/s");
            m.add("device_ms_p50", quantile(device_ms, 0.50), "ms");
            m.add("device_ms_p99", quantile(device_ms, 0.99), "ms");
            m.add("peak_rss_mb", rss, "MB");
        }
        const bool correct = tally.failed == 0;
        std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                    "\"metrics\": {%s}}\n",
                    correct ? "true" : "false", tally.attempted, tally.failed,
                    m.body().c_str());
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "campaign_bench: " << e.what() << "\n";
        return 1;
    }
}
