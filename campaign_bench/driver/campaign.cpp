#include "campaign.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "devices/population.hpp"
#include "devices/profiles.hpp"
#include "harness/results_io.hpp"
#include "harness/testbed.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"

namespace campaign_bench {

using namespace gatekit;
using Clock = std::chrono::steady_clock;

namespace {

// Run sizes: devices per round and TCP-2 bytes per leg. tcp_bulk
// devices all carry the same frames, so a draw of 6 fixes the round's
// work. nat444_chain devices differ (the few with a 1024-binding TCP-4
// set its peak memory and its slowest device), so every round runs all
// calibrated devices and the seed only sets their order.
constexpr int kTcpBulkDevices = 6;
constexpr std::size_t kTcpBulkBytes = 10'000'000;
constexpr std::size_t kNat444Bytes = 5'000'000;
constexpr int kPopulationDevices = 1000;

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t ns_since(Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times every frame a link delivers to the NIC it wraps. Links
/// schedule deliveries as events, so two wrapped spans never nest.
class TimedSink final : public sim::FrameSink {
public:
    TimedSink(sim::FrameSink& inner, SpanStats& stats)
        : inner_(inner), stats_(stats) {}

    void frame_in(sim::Frame frame) override {
        const auto t0 = Clock::now();
        inner_.frame_in(std::move(frame));
        stats_.add(ns_since(t0));
    }

private:
    sim::FrameSink& inner_;
    SpanStats& stats_;
};

template <typename Fn> void for_each_link(harness::Testbed& tb, Fn&& fn) {
    fn(tb.client_trunk());
    fn(tb.server_trunk());
    for (std::size_t i = 0; i < tb.device_count(); ++i) {
        auto& slot = tb.slot(static_cast<int>(i));
        fn(*slot.lan_link);
        fn(*slot.wan_link);
    }
    for (std::size_t i = 0; i < tb.cgn_count(); ++i) {
        auto& grp = tb.cgn_group(static_cast<int>(i));
        fn(*grp.access_link);
        fn(*grp.wan_link);
    }
}

std::uint64_t frames_carried(harness::Testbed& tb) {
    std::uint64_t n = 0;
    for_each_link(tb, [&](sim::Link& l) {
        n += l.frames_sent(sim::Link::Side::A) +
             l.frames_sent(sim::Link::Side::B);
    });
    return n;
}

gateway::DeviceProfile device_profile(Workload w, const DeviceSpec& d) {
    if (w == Workload::PopTimeouts)
        return devices::sample_gateway(d.seed, d.index);
    return devices::all_profiles().at(static_cast<std::size_t>(d.index));
}

/// Step the loop until `stop()` holds or the queue drains, timing each
/// step() call.
template <typename Stop>
void timed_steps(sim::EventLoop& loop, LayerTrace& t, Stop&& stop) {
    auto prev = Clock::now();
    while (!stop() && loop.step()) {
        const auto now = Clock::now();
        t.step.add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - prev)
                .count()));
        prev = now;
        t.pending_max = std::max<std::uint64_t>(t.pending_max, loop.pending());
    }
}

} // namespace

bool parse_workload(std::string_view name, Workload& out) {
    for (Workload w :
         {Workload::TcpBulk, Workload::PopTimeouts, Workload::Nat444Chain})
        if (name == workload_name(w)) {
            out = w;
            return true;
        }
    return false;
}

const char* workload_name(Workload w) {
    switch (w) {
    case Workload::TcpBulk: return "tcp_bulk";
    case Workload::PopTimeouts: return "pop_timeouts";
    case Workload::Nat444Chain: return "nat444_chain";
    }
    return "?";
}

std::vector<DeviceSpec> draw_roster(Workload w, std::uint64_t seed) {
    std::vector<DeviceSpec> out;
    if (w == Workload::PopTimeouts) {
        for (int i = 0; i < kPopulationDevices; ++i)
            out.push_back(DeviceSpec{i, seed});
        return out;
    }
    // Seeded partial Fisher-Yates over the calibrated roster.
    std::vector<int> idx(devices::all_profiles().size());
    const int draw = w == Workload::TcpBulk ? kTcpBulkDevices
                                            : static_cast<int>(idx.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::uint64_t state = seed;
    for (int i = 0; i < draw; ++i) {
        const auto left = static_cast<std::uint64_t>(idx.size()) - i;
        const auto j = static_cast<std::size_t>(i) +
                       static_cast<std::size_t>(splitmix64(state) % left);
        std::swap(idx[static_cast<std::size_t>(i)], idx[j]);
        out.push_back(DeviceSpec{idx[static_cast<std::size_t>(i)], 0});
    }
    return out;
}

std::string device_key(Workload w, const DeviceSpec& d) {
    if (w == Workload::PopTimeouts)
        return std::to_string(d.seed) + ":" + std::to_string(d.index);
    return devices::all_profiles().at(static_cast<std::size_t>(d.index)).tag;
}

harness::CampaignConfig campaign_config(Workload w) {
    harness::CampaignConfig cfg;
    switch (w) {
    case Workload::TcpBulk:
        cfg.tcp2 = true;
        cfg.throughput.bytes = kTcpBulkBytes;
        break;
    case Workload::PopTimeouts: // population_campaign's config
        cfg.udp1 = cfg.udp4 = cfg.tcp1 = cfg.stun = true;
        cfg.udp.repetitions = 1;
        cfg.tcp_timeout.repetitions = 1;
        break;
    case Workload::Nat444Chain:
        cfg.tcp2 = cfg.udp1 = cfg.tcp4 = true;
        cfg.throughput.bytes = kNat444Bytes;
        break;
    }
    return cfg;
}

std::string results_digest(const harness::DeviceResults& r,
                           const harness::CampaignConfig& cfg) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::string_view s) {
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
        h ^= 0xff; // field separator
        h *= 0x100000001b3ULL;
    };
    mix(r.tag);
    const auto plan = harness::unit_plan(cfg);
    for (const auto& unit : plan) {
        mix(unit);
        const auto it =
            std::find_if(r.units.begin(), r.units.end(),
                         [&](const harness::UnitReport& u) {
                             return u.unit == unit;
                         });
        mix(it == r.units.end() ? "missing" : harness::to_string(it->status));
        mix(harness::unit_payload_json(r, unit));
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

int NsHistogram::bucket(std::uint64_t ns) {
    if (ns < kSub) return static_cast<int>(ns);
    const int e = std::bit_width(ns) - 1; // >= 6
    const auto sub = static_cast<int>((ns >> (e - 6)) & (kSub - 1));
    return kSub + (e - 6) * kSub + sub;
}

std::uint64_t NsHistogram::lower(int b) {
    if (b < kSub) return static_cast<std::uint64_t>(b);
    const int e = (b - kSub) / kSub + 6;
    const auto sub = static_cast<std::uint64_t>((b - kSub) % kSub);
    return (kSub + sub) << (e - 6);
}

void NsHistogram::add(std::uint64_t ns) {
    ++counts_[static_cast<std::size_t>(bucket(ns))];
    ++count_;
}

double NsHistogram::quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_ - 1);
    std::uint64_t below = 0;
    for (int b = 0; b < kBuckets; ++b) {
        const std::uint64_t c = counts_[static_cast<std::size_t>(b)];
        if (c == 0) continue;
        if (rank < static_cast<double>(below + c)) {
            const double lo = static_cast<double>(lower(b));
            const double width =
                b < kSub ? 1.0 : static_cast<double>(lower(b + 1)) - lo;
            const double frac =
                (rank - static_cast<double>(below) + 0.5) /
                static_cast<double>(c);
            return lo + frac * width;
        }
        below += c;
    }
    return static_cast<double>(lower(kBuckets - 1));
}

DeviceRun run_device(Workload w, const DeviceSpec& d, LayerTrace* trace) {
    DeviceRun out;
    const auto t_setup = Clock::now();
    gateway::DeviceProfile profile = device_profile(w, d);

    sim::EventLoop loop;
    // Observability before the testbed: components keep raw pointers.
    std::unique_ptr<obs::Observability> obs;
    if (trace != nullptr) obs = std::make_unique<obs::Observability>(loop);
    harness::Testbed tb(loop);
    int slot_i = 0;
    if (w == Workload::Nat444Chain) {
        // One CGN group per gateway: the cgn_matrix topology.
        const int g = tb.add_cgn_group();
        slot_i = tb.add_device_behind_cgn(std::move(profile), g);
    } else {
        slot_i = tb.add_device(std::move(profile), d.index + 1);
    }
    auto& slot = tb.slot(slot_i);

    harness::CampaignConfig cfg = campaign_config(w);
    cfg.shard.index = d.index;
    cfg.shard.first_device = 0;
    cfg.shard.last_device = 0;
    cfg.shard.device_base = d.index;

    std::vector<harness::DeviceResults> results;
    if (trace == nullptr) {
        tb.start_and_wait();
        out.setup_s = seconds_since(t_setup);
        const auto t_campaign = Clock::now();
        harness::Testrund rund(tb);
        results = rund.run_blocking(cfg);
        out.campaign_s = seconds_since(t_campaign);
    } else {
        LayerTrace& t = *trace;
        tb.attach_observability(obs.get());
        std::vector<std::unique_ptr<TimedSink>> sinks;
        std::vector<stack::NetIf*> nics;
        auto wrap = [&](sim::Link& link, stack::NetIf& nic, SpanStats& s) {
            sinks.push_back(std::make_unique<TimedSink>(nic, s));
            link.attach(sim::Link::Side::A, *sinks.back());
            nics.push_back(&nic);
        };
        wrap(tb.client_trunk(), tb.client().nic(), t.client_rx);
        wrap(tb.server_trunk(), tb.server().nic(), t.server_rx);
        wrap(*slot.lan_link, slot.gw->host().nic(), t.gw_lan_rx);
        for (std::size_t i = 0; i < tb.cgn_count(); ++i) {
            auto& grp = tb.cgn_group(static_cast<int>(i));
            wrap(*grp.access_link, grp.cgn->host().nic(), t.cgn_access_rx);
        }

        // start_and_wait(), stepped: step until ready, then drain the
        // rest of the same 60 s bring-up window exactly as run_until does.
        bool ready = false;
        const auto deadline = loop.now() + std::chrono::seconds(60);
        const auto t_bringup = Clock::now();
        tb.start([&ready] { ready = true; });
        timed_steps(loop, t, [&] { return ready || loop.now() > deadline; });
        if (!ready) throw std::runtime_error("testbed bring-up failed");
        const auto t_tail = Clock::now();
        loop.run_until(deadline);
        t.tail_ns += ns_since(t_tail);
        t.bringup_ms.push_back(seconds_since(t_bringup) * 1e3);
        out.setup_s = seconds_since(t_setup);

        // Testrund::run_blocking(), stepped.
        obs::ProfileCollector prof;
        cfg.profiler = &prof;
        const auto t_campaign = Clock::now();
        harness::Testrund rund(tb);
        bool done = false;
        rund.run(cfg, [&](std::vector<harness::DeviceResults> r) {
            results = std::move(r);
            done = true;
        });
        timed_steps(loop, t, [] { return false; });
        if (!done) throw std::runtime_error("campaign did not finish");
        out.campaign_s = seconds_since(t_campaign);

        for (const auto& span : prof.spans())
            t.unit_ms[span.unit].push_back(
                static_cast<double>(span.wall_ns) / 1e6);
        for (stack::NetIf* nic : nics) {
            const auto& ps = nic->pool().stats();
            t.pool_acquires += ps.acquires;
            t.pool_hits += ps.hits;
            t.pool_fallbacks += ps.fallbacks;
        }
        const auto& reg = obs->metrics();
        t.tcp_retransmits += reg.counter_total("tcp.retransmits");
        t.nat_created += reg.counter_total("nat.binding.created");
        t.nat_expired += reg.counter_total("nat.binding.expired");
        t.nat_refused += reg.counter_total("nat.binding.refused");
        t.fwd_forwarded += reg.counter_total("fwd.forwarded");
        t.fwd_dropped += reg.counter_total("fwd.dropped");
        for (std::size_t i = 0; i < tb.cgn_count(); ++i) {
            const auto& cs = tb.cgn_group(static_cast<int>(i))
                                 .cgn->engine()
                                 .stats();
            t.cgn_translated += cs.translated_out + cs.translated_in;
            t.cgn_dropped += cs.dropped_no_binding + cs.dropped_policy;
        }
        for (const auto& rec : slot.wan_tap.records()) {
            ++t.capture_frames;
            t.capture_bytes += rec.frame.size();
        }
        for_each_link(tb, [&](sim::Link& l) {
            t.link_tx_drops += l.tx_drops(sim::Link::Side::A) +
                               l.tx_drops(sim::Link::Side::B);
        });
    }

    out.frames = frames_carried(tb);
    out.events = loop.events_processed();
    if (trace != nullptr) {
        trace->frames += out.frames;
        trace->events += out.events;
    }
    if (results.size() != 1)
        throw std::runtime_error("campaign returned no device results");
    const auto& r = results.front();
    out.digest = results_digest(r, cfg);
    out.units = static_cast<int>(r.units.size());
    for (const auto& u : r.units)
        if (u.status != harness::UnitStatus::Ok) ++out.units_not_ok;
    return out;
}

} // namespace campaign_bench
