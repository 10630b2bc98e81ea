// Harness validation: the binary search converges on synthetic oracles,
// and every probe recovers the behavior configured into a known profile.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>

#include "harness/testrund.hpp"
#include "net/ethernet.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "stack/tcp_socket.hpp"
#include "stack/udp_socket.hpp"
#include "util/rng.hpp"

using namespace gatekit;
using namespace gatekit::harness;
using gateway::DeviceProfile;
using gateway::IcmpKind;

// --- BindingTimeoutSearch against synthetic oracles -------------------------

namespace {

/// Run a search against a pure threshold oracle: alive iff gap < timeout.
SearchResult search_oracle(sim::Duration timeout, SearchParams params) {
    sim::EventLoop loop;
    SearchResult out;
    bool finished = false;
    BindingTimeoutSearch search(
        loop, params,
        [&](sim::Duration gap, std::function<void(bool)> cb) {
            loop.after(gap, [cb = std::move(cb), gap, timeout] {
                cb(gap < timeout);
            });
        },
        [&](SearchResult r) {
            out = r;
            finished = true;
        });
    search.start();
    loop.run();
    EXPECT_TRUE(finished);
    return out;
}

} // namespace

TEST(BindingSearch, ConvergesToConfiguredTimeout) {
    SearchParams params;
    const auto r = search_oracle(std::chrono::seconds(90), params);
    EXPECT_FALSE(r.exceeded_limit);
    EXPECT_NEAR(sim::to_sec(r.timeout), 90.0, 1.0);
}

TEST(BindingSearch, SweepRecoversArbitraryTimeouts) {
    SearchParams params;
    for (int t : {5, 17, 30, 54, 90, 181, 202, 450, 691, 3599}) {
        const auto r = search_oracle(std::chrono::seconds(t), params);
        EXPECT_NEAR(sim::to_sec(r.timeout), t, 1.0) << "timeout " << t;
        EXPECT_FALSE(r.exceeded_limit);
    }
}

TEST(BindingSearch, ReportsCutoffExceeded) {
    SearchParams params;
    params.hi_limit = std::chrono::hours(24);
    const auto r = search_oracle(std::chrono::hours(30), params);
    EXPECT_TRUE(r.exceeded_limit);
    EXPECT_EQ(r.timeout, params.hi_limit);
}

TEST(BindingSearch, TrialCountIsLogarithmic) {
    SearchParams params;
    const auto r = search_oracle(std::chrono::seconds(691), params);
    // Exponential bracket (~7) + bisection (~10): well under 30.
    EXPECT_LT(r.trials, 30);
}

// --- full-probe validation on a synthetic device ----------------------------

namespace {

DeviceProfile oracle_profile() {
    DeviceProfile p;
    p.tag = "oracle";
    p.udp.initial = std::chrono::seconds(35);
    p.udp.inbound_refresh = std::chrono::seconds(150);
    p.udp.outbound_refresh = std::chrono::seconds(260);
    p.udp.per_service[53] = std::chrono::seconds(20); // dl8-style DNS quirk
    p.tcp_established_timeout = std::chrono::minutes(9);
    p.max_tcp_bindings = 24;
    p.port_allocation = gateway::PortAllocation::PreserveSourcePort;
    p.port_quarantine = std::chrono::seconds(0); // immediate reuse
    p.icmp_tcp = gateway::IcmpTranslationSet::all();
    p.icmp_udp = gateway::IcmpTranslationSet::all();
    p.icmp_udp.set(IcmpKind::SourceQuench, false); // one hole to detect
    p.unknown_proto = gateway::UnknownProtocolPolicy::TranslateIpOnly;
    p.dns_tcp = gateway::DnsTcpMode::ProxyTcp;
    p.fwd.down_mbps = 40.0;
    p.fwd.up_mbps = 30.0;
    p.fwd.aggregate_mbps = 50.0;
    p.fwd.buffer_down_bytes = 100 * 1024;
    p.fwd.buffer_up_bytes = 100 * 1024;
    return p;
}

struct OracleBed {
    sim::EventLoop loop;
    Testbed tb{loop};
    Testrund rund{tb};
    int idx;

    explicit OracleBed(DeviceProfile p = oracle_profile())
        : idx(tb.add_device(std::move(p))) {}

    DeviceResults run(const CampaignConfig& cfg) {
        auto all = rund.run_blocking(cfg);
        return all.at(0);
    }
};

} // namespace

TEST(Probes, Udp1RecoversInitialTimeout) {
    OracleBed bed;
    CampaignConfig cfg;
    cfg.udp1 = true;
    cfg.udp.repetitions = 3;
    const auto r = bed.run(cfg);
    EXPECT_NEAR(r.udp1.summary().median, 35.0, 2.0);
}

TEST(Probes, Udp2RecoversInboundRefreshTimeout) {
    OracleBed bed;
    CampaignConfig cfg;
    cfg.udp2 = true;
    cfg.udp.repetitions = 3;
    const auto r = bed.run(cfg);
    EXPECT_NEAR(r.udp2.summary().median, 150.0, 2.0);
}

TEST(Probes, Udp3RecoversOutboundRefreshTimeout) {
    OracleBed bed;
    CampaignConfig cfg;
    cfg.udp3 = true;
    cfg.udp.repetitions = 3;
    const auto r = bed.run(cfg);
    EXPECT_NEAR(r.udp3.summary().median, 260.0, 2.0);
}

TEST(Probes, Udp4DetectsPreservationAndReuse) {
    OracleBed bed;
    CampaignConfig cfg;
    cfg.udp4 = true;
    const auto r = bed.run(cfg);
    EXPECT_TRUE(r.udp4.preserves_source_port);
    EXPECT_TRUE(r.udp4.reuses_expired_binding);
}

TEST(Probes, Udp4DetectsQuarantine) {
    auto p = oracle_profile();
    p.port_quarantine = std::chrono::minutes(5);
    OracleBed bed(p);
    CampaignConfig cfg;
    cfg.udp4 = true;
    const auto r = bed.run(cfg);
    EXPECT_TRUE(r.udp4.preserves_source_port);
    EXPECT_FALSE(r.udp4.reuses_expired_binding);
}

TEST(Probes, Udp4DetectsSequentialAllocation) {
    auto p = oracle_profile();
    p.port_allocation = gateway::PortAllocation::Sequential;
    OracleBed bed(p);
    CampaignConfig cfg;
    cfg.udp4 = true;
    const auto r = bed.run(cfg);
    EXPECT_FALSE(r.udp4.preserves_source_port);
}

TEST(Probes, Udp5DetectsPerServiceQuirk) {
    OracleBed bed;
    CampaignConfig cfg;
    cfg.udp5 = true;
    cfg.udp.repetitions = 2;
    const auto r = bed.run(cfg);
    ASSERT_TRUE(r.udp5.contains("dns"));
    ASSERT_TRUE(r.udp5.contains("http"));
    EXPECT_NEAR(r.udp5.at("dns").summary().median, 20.0, 2.0);
    EXPECT_NEAR(r.udp5.at("http").summary().median, 150.0, 2.0);
    EXPECT_NEAR(r.udp5.at("ntp").summary().median, 150.0, 2.0);
}

TEST(Probes, Tcp1RecoversEstablishedTimeout) {
    OracleBed bed;
    CampaignConfig cfg;
    cfg.tcp1 = true;
    cfg.tcp_timeout.repetitions = 2;
    const auto r = bed.run(cfg);
    EXPECT_FALSE(r.tcp1.exceeded_limit);
    EXPECT_NEAR(r.tcp1.summary().median, 9 * 60.0, 2.0);
}

TEST(Probes, Tcp1ReportsBeyondCutoff) {
    auto p = oracle_profile();
    p.tcp_established_timeout = std::chrono::hours(30);
    OracleBed bed(p);
    CampaignConfig cfg;
    cfg.tcp1 = true;
    cfg.tcp_timeout.repetitions = 1;
    const auto r = bed.run(cfg);
    EXPECT_TRUE(r.tcp1.exceeded_limit);
    EXPECT_NEAR(r.tcp1.summary().median, 24 * 3600.0, 1.0);
}

TEST(Probes, Tcp4RecoversBindingLimit) {
    OracleBed bed;
    CampaignConfig cfg;
    cfg.tcp4 = true;
    cfg.max_bindings.limit = 100;
    const auto r = bed.run(cfg);
    EXPECT_FALSE(r.tcp4.hit_probe_limit);
    EXPECT_EQ(r.tcp4.max_bindings, 24);
}

TEST(Probes, ThroughputMatchesForwardingModel) {
    OracleBed bed;
    CampaignConfig cfg;
    cfg.tcp2 = true;
    cfg.throughput.bytes = 8 * 1000 * 1000; // 8 MB keeps the test quick
    const auto r = bed.run(cfg);
    // Unidirectional: min(direction rate, aggregate) with ~5% protocol
    // overhead tolerance.
    EXPECT_NEAR(r.tcp2.upload.mbps, 30.0, 3.0);
    EXPECT_NEAR(r.tcp2.download.mbps, 40.0, 4.0);
    // Bidirectional: the 50 Mb/s CPU is shared; each direction gets less
    // than alone, and the total stays near the aggregate.
    EXPECT_LT(r.tcp2.download_bidir.mbps, r.tcp2.download.mbps + 1.0);
    const double total =
        r.tcp2.upload_bidir.mbps + r.tcp2.download_bidir.mbps;
    EXPECT_NEAR(total, 50.0, 6.0);
    // Bufferbloat: the 100 KiB buffer at 40 Mb/s is ~20 ms when full.
    EXPECT_GT(r.tcp2.download.delay_ms, 5.0);
    EXPECT_LT(r.tcp2.download.delay_ms, 40.0);
}

TEST(Probes, IcmpMatrixMatchesProfile) {
    OracleBed bed;
    CampaignConfig cfg;
    cfg.icmp = true;
    const auto r = bed.run(cfg);
    // All TCP kinds pass; UDP passes except SourceQuench.
    for (int k = 0; k < gateway::kIcmpKindCount; ++k) {
        const auto kind = static_cast<IcmpKind>(k);
        EXPECT_TRUE(r.icmp.verdict(true, kind).forwarded)
            << to_string(kind);
        const bool expect_udp = kind != IcmpKind::SourceQuench;
        EXPECT_EQ(r.icmp.verdict(false, kind).forwarded, expect_udp)
            << to_string(kind);
    }
    EXPECT_TRUE(r.icmp.query_error_forwarded);
    // Correct device: embedded header and checksum both right.
    const auto& v = r.icmp.verdict(false, IcmpKind::PortUnreachable);
    EXPECT_TRUE(v.embedded_transport_ok);
    EXPECT_TRUE(v.embedded_ip_checksum_ok);
    EXPECT_FALSE(v.rst_instead);
}

TEST(Probes, IcmpDetectsEmbeddedHeaderBugs) {
    auto p = oracle_profile();
    p.fix_embedded_transport = false;
    p.fix_embedded_ip_checksum = false;
    OracleBed bed(p);
    CampaignConfig cfg;
    cfg.icmp = true;
    const auto r = bed.run(cfg);
    const auto& v = r.icmp.verdict(false, IcmpKind::PortUnreachable);
    EXPECT_TRUE(v.forwarded);
    EXPECT_FALSE(v.embedded_transport_ok);
    EXPECT_FALSE(v.embedded_ip_checksum_ok);
}

TEST(Probes, IcmpDetectsRstSynthesis) {
    auto p = oracle_profile();
    p.tcp_icmp_becomes_rst = true;
    OracleBed bed(p);
    CampaignConfig cfg;
    cfg.icmp = true;
    const auto r = bed.run(cfg);
    const auto& v = r.icmp.verdict(true, IcmpKind::HostUnreachable);
    EXPECT_FALSE(v.forwarded);
    EXPECT_TRUE(v.rst_instead);
}

TEST(Probes, TransportsThroughIpOnlyNat) {
    OracleBed bed;
    CampaignConfig cfg;
    cfg.transports = true;
    const auto r = bed.run(cfg);
    EXPECT_TRUE(r.transports.sctp_connects);
    EXPECT_TRUE(r.transports.sctp_data_ok);
    EXPECT_FALSE(r.transports.dccp_connects);
    EXPECT_EQ(r.transports.sctp_action, NatAction::IpOnly);
    EXPECT_EQ(r.transports.dccp_action, NatAction::IpOnly);
}

TEST(Probes, TransportsClassifyUntranslated) {
    auto p = oracle_profile();
    p.unknown_proto = gateway::UnknownProtocolPolicy::Untranslated;
    OracleBed bed(p);
    CampaignConfig cfg;
    cfg.transports = true;
    const auto r = bed.run(cfg);
    EXPECT_FALSE(r.transports.sctp_connects);
    EXPECT_EQ(r.transports.sctp_action, NatAction::Untranslated);
}

TEST(Probes, TransportsClassifyDropped) {
    auto p = oracle_profile();
    p.unknown_proto = gateway::UnknownProtocolPolicy::Drop;
    OracleBed bed(p);
    CampaignConfig cfg;
    cfg.transports = true;
    const auto r = bed.run(cfg);
    EXPECT_FALSE(r.transports.sctp_connects);
    EXPECT_EQ(r.transports.sctp_action, NatAction::Dropped);
}

TEST(Probes, DnsModes) {
    {
        OracleBed bed; // ProxyTcp
        CampaignConfig cfg;
        cfg.dns = true;
        const auto r = bed.run(cfg);
        EXPECT_TRUE(r.dns.udp_ok);
        EXPECT_TRUE(r.dns.tcp_connects);
        EXPECT_TRUE(r.dns.tcp_answers);
        EXPECT_FALSE(r.dns.tcp_upstream_udp);
    }
    {
        auto p = oracle_profile();
        p.dns_tcp = gateway::DnsTcpMode::ProxyViaUdp;
        OracleBed bed(p);
        CampaignConfig cfg;
        cfg.dns = true;
        const auto r = bed.run(cfg);
        EXPECT_TRUE(r.dns.tcp_answers);
        EXPECT_TRUE(r.dns.tcp_upstream_udp);
    }
    {
        auto p = oracle_profile();
        p.dns_tcp = gateway::DnsTcpMode::NoListen;
        OracleBed bed(p);
        CampaignConfig cfg;
        cfg.dns = true;
        const auto r = bed.run(cfg);
        EXPECT_TRUE(r.dns.udp_ok);
        EXPECT_FALSE(r.dns.tcp_connects);
        EXPECT_FALSE(r.dns.tcp_answers);
    }
    {
        auto p = oracle_profile();
        p.dns_tcp = gateway::DnsTcpMode::AcceptOnly;
        OracleBed bed(p);
        CampaignConfig cfg;
        cfg.dns = true;
        const auto r = bed.run(cfg);
        EXPECT_TRUE(r.dns.tcp_connects);
        EXPECT_FALSE(r.dns.tcp_answers);
    }
}

TEST(Probes, CoarseTimerProducesSpread) {
    // Coarse timers quantize only confirmed-binding expiries (UDP-2):
    // the paper's UDP-1 results are tight for every device while UDP-2
    // shows wide quartiles on we/al/je/ng5.
    auto p = oracle_profile();
    p.udp.granularity = std::chrono::seconds(60);
    OracleBed bed(p);
    CampaignConfig cfg;
    cfg.udp1 = true;
    cfg.udp2 = true;
    cfg.udp.repetitions = 6;
    const auto r = bed.run(cfg);
    const auto s1 = r.udp1.summary();
    // UDP-1 (unconfirmed binding): still exact.
    EXPECT_NEAR(s1.median, 35.0, 2.0);
    EXPECT_LT(s1.max - s1.min, 3.0);
    // UDP-2 (confirmed): quantized into [150, 210), visibly spread.
    const auto s2 = r.udp2.summary();
    EXPECT_GE(s2.min, 149.0);
    EXPECT_LE(s2.max, 211.0);
    EXPECT_GT(s2.max - s2.min, 1.0);
}

// --- TCP-3 block meter --------------------------------------------------------

namespace {

/// The byte-at-a-time meter the block meter replaced, kept as the
/// oracle: every received byte advances the block offset, the 16 bytes
/// at each block start fill the header, and the 16th yields a sample.
class ByteLoopMeter {
public:
    explicit ByteLoopMeter(sim::EventLoop& loop) : loop_(loop) {}

    void on_bytes(std::span<const std::uint8_t> d) {
        if (received_ == 0) first_byte_ = loop_.now();
        last_byte_ = loop_.now();
        for (std::uint8_t b : d) {
            const std::size_t in_block = received_ % detail::kStampBlock;
            if (in_block < detail::kStampHeader) {
                header_[in_block] = b;
                if (in_block == detail::kStampHeader - 1) consume_header();
            }
            ++received_;
        }
    }

    TransferResult result(std::size_t expected) const {
        TransferResult r;
        r.bytes = received_;
        r.completed = received_ >= expected;
        r.duration_sec = sim::to_sec(last_byte_ - first_byte_);
        if (r.duration_sec > 0)
            r.mbps = static_cast<double>(received_) * 8.0 /
                     (r.duration_sec * 1e6);
        if (!delays_ms_.empty()) {
            const double floor =
                *std::min_element(delays_ms_.begin(), delays_ms_.end());
            std::vector<double> normalized;
            for (double v : delays_ms_) normalized.push_back(v - floor);
            r.delay_ms = stats::median(normalized);
        }
        return r;
    }

    std::uint64_t received_ = 0;
    std::vector<double> delays_ms_;

private:
    void consume_header() {
        std::uint64_t magic = 0, stamp = 0;
        for (std::size_t i = 0; i < 8; ++i) magic = (magic << 8) | header_[i];
        for (std::size_t i = 8; i < 16; ++i) stamp = (stamp << 8) | header_[i];
        if (magic != detail::kStampMagic) return;
        delays_ms_.push_back(
            static_cast<double>(loop_.now().count() -
                                static_cast<std::int64_t>(stamp)) /
            1e6);
    }

    sim::EventLoop& loop_;
    std::array<std::uint8_t, 16> header_{};
    sim::TimePoint first_byte_{};
    sim::TimePoint last_byte_{};
};

/// A TCP-2 payload of `len` bytes: every block stamped as PacedSender
/// stamps it, except every fifth, whose magic is damaged (no sample).
net::Bytes stamped_stream(std::size_t len) {
    net::Bytes out(len, 0x5a);
    for (std::size_t at = 0, i = 0; at + detail::kStampHeader <= len;
         at += detail::kStampBlock, ++i) {
        const std::uint64_t magic =
            i % 5 == 4 ? detail::kStampMagic ^ 1 : detail::kStampMagic;
        const std::uint64_t stamp = i * 1'000'000 + (i * 7919) % 3'000'000;
        for (std::size_t b = 0; b < 8; ++b) {
            out[at + b] = static_cast<std::uint8_t>(magic >> (56 - 8 * b));
            out[at + 8 + b] = static_cast<std::uint8_t>(stamp >> (56 - 8 * b));
        }
    }
    return out;
}

/// Feed `stream` in chunks of the sizes `next_size` yields to both
/// meters, 1 ms of virtual time apart, and require identical readings.
template <typename NextSize>
void expect_meters_agree(const net::Bytes& stream, NextSize next_size,
                         const std::string& what) {
    sim::EventLoop loop;
    ByteLoopMeter oracle(loop);
    detail::MeteredReceiver meter(loop);
    std::span<const std::uint8_t> rest(stream);
    while (!rest.empty()) {
        const std::size_t n = std::min(next_size(), rest.size());
        oracle.on_bytes(rest.first(n));
        meter.on_bytes(rest.first(n));
        rest = rest.subspan(n);
        loop.run_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(meter.bytes(), oracle.received_) << what;
    EXPECT_EQ(meter.delays_ms(), oracle.delays_ms_) << what;
    for (const std::size_t expected : {stream.size(), stream.size() + 1}) {
        const TransferResult a = meter.result(expected);
        const TransferResult b = oracle.result(expected);
        EXPECT_EQ(a.bytes, b.bytes) << what;
        EXPECT_EQ(a.completed, b.completed) << what;
        EXPECT_EQ(a.duration_sec, b.duration_sec) << what;
        EXPECT_EQ(a.mbps, b.mbps) << what;
        EXPECT_EQ(a.delay_ms, b.delay_ms) << what;
    }
}

} // namespace

// The block meter jumps from one header to the next instead of walking
// every byte; it must read exactly what the byte loop read, wherever the
// socket splits the stream (headers split across calls included) and
// whether the last block is shorter than a header or not.
TEST(MeteredReceiver, BlockMeterMatchesByteLoop) {
    const std::size_t kBlocks = 24;
    for (const std::size_t tail : {0, 10, 16, 700}) {
        const auto stream =
            stamped_stream(kBlocks * detail::kStampBlock + tail);
        for (const std::size_t chunk :
             {1, 15, 16, 17, 1460, 2047, 2048, 2049}) {
            expect_meters_agree(
                stream, [chunk] { return chunk; },
                "tail " + std::to_string(tail) + " chunk " +
                    std::to_string(chunk));
        }
        for (const std::uint64_t seed : {1, 2, 3, 4}) {
            Rng rng(seed);
            expect_meters_agree(
                stream, [&rng] { return std::size_t{rng.uniform(1, 4500)}; },
                "tail " + std::to_string(tail) + " seed " +
                    std::to_string(seed));
        }
    }
    // The oracle really saw samples, so agreement is not vacuous.
    sim::EventLoop loop;
    detail::MeteredReceiver meter(loop);
    meter.on_bytes(stamped_stream(kBlocks * detail::kStampBlock));
    EXPECT_EQ(meter.delays_ms().size(), kBlocks - kBlocks / 5);
}

// --- WAN capture on demand ------------------------------------------------

// The testbed attaches no WAN capture: bulk transfers must not copy every
// frame into a capture nobody reads.
TEST(WanCapture, Tcp2UnitLeavesNoCapture) {
    OracleBed bed;
    CampaignConfig cfg;
    cfg.tcp2 = true;
    cfg.throughput.bytes = 200 * 1000;
    const auto r = bed.run(cfg);
    EXPECT_TRUE(r.tcp2.upload.completed);
    EXPECT_TRUE(r.tcp2.download_bidir.completed);
    EXPECT_TRUE(bed.tb.slot(bed.idx).wan_tap.records().empty());
}

// The transport unit attaches the capture for its SCTP and DCCP windows
// only, then detaches and clears it; the verdicts it reads stay the same.
TEST(WanCapture, TransportUnitAttachesOnlyForItsWindows) {
    struct Case {
        gateway::UnknownProtocolPolicy policy;
        NatAction action;
    };
    for (const Case c :
         {Case{gateway::UnknownProtocolPolicy::TranslateIpOnly,
               NatAction::IpOnly},
          Case{gateway::UnknownProtocolPolicy::Untranslated,
               NatAction::Untranslated},
          Case{gateway::UnknownProtocolPolicy::Drop, NatAction::Dropped}}) {
        auto p = oracle_profile();
        p.unknown_proto = c.policy;
        OracleBed bed(p);
        CampaignConfig cfg;
        cfg.transports = true;
        const auto r = bed.run(cfg);
        EXPECT_EQ(r.transports.sctp_action, c.action);
        EXPECT_EQ(r.transports.dccp_action, c.action);
        auto& slot = bed.tb.slot(bed.idx);
        EXPECT_TRUE(slot.wan_tap.records().empty());
        // Detached, not just cleared: later WAN traffic is not recorded.
        bed.tb.client().send_icmp(slot.client_addr, slot.server_addr,
                                  net::IcmpMessage::make_echo(false, 7, 1));
        bed.loop.run_for(std::chrono::seconds(1));
        EXPECT_TRUE(slot.wan_tap.records().empty());
    }
}

namespace {

/// Frame indices of the WAN link's impair.lost events from `from` on.
std::vector<std::int64_t> lost_frames(const obs::FlightRecorder& rec,
                                      std::size_t from) {
    std::vector<std::int64_t> out;
    const auto events = rec.snapshot();
    for (std::size_t i = from; i < events.size(); ++i)
        if (events[i].name == "impair.lost") out.push_back(events[i].frame);
    return out;
}

} // namespace

// A capture attached by hand after bring-up (as examples/trace_capture
// does) records what crosses the WAN link, and while it is attached the
// link's impairment events carry the affected frame's capture index;
// with no capture attached they carry -1.
TEST(WanCapture, HandAttachedTapRecordsAndIndexesTraceEvents) {
    sim::EventLoop loop;
    obs::Observability obs(loop);
    obs::FlightRecorder rec(4096);
    obs.tracer().add_sink(&rec);
    Testbed tb(loop);
    const int idx = tb.add_device(oracle_profile());
    tb.attach_observability(&obs);
    tb.start_and_wait();
    auto& slot = tb.slot(idx);
    EXPECT_TRUE(slot.wan_tap.records().empty());

    auto& udp = tb.client().udp_open(slot.client_addr, 40000);
    sim::LinkImpairments lose_all;
    lose_all.loss = 1.0;
    const auto send_lost_datagram = [&] {
        const std::size_t mark = rec.snapshot().size();
        slot.wan_link->set_impairments(sim::Link::Side::A, lose_all, 7);
        udp.send_to({slot.server_addr, 7000}, {'x'});
        loop.run_for(std::chrono::seconds(1));
        slot.wan_link->set_impairments(sim::Link::Side::A, {});
        return lost_frames(rec, mark);
    };
    EXPECT_EQ(send_lost_datagram(), (std::vector<std::int64_t>{-1}));

    slot.wan_tap.attach(*slot.wan_link);
    tb.client().send_icmp(slot.client_addr, slot.server_addr,
                          net::IcmpMessage::make_echo(false, 7, 1));
    udp.send_to({slot.server_addr, 7000}, {'y'});
    auto& lst = tb.server().tcp_listen(8080);
    auto& conn = tb.client().tcp_connect(slot.client_addr, 0,
                                         {slot.server_addr, 8080});
    conn.on_established = [&conn] { conn.send({'h', 'i'}); };
    loop.run_for(std::chrono::seconds(5));
    std::map<std::uint8_t, int> mix;
    for (const auto& r : slot.wan_tap.records()) {
        const auto frame = net::EthernetFrame::parse(r.frame);
        if (frame.ethertype != net::kEtherTypeIpv4) continue;
        ++mix[net::Ipv4Packet::parse(frame.payload).h.protocol];
    }
    EXPECT_GT(mix[net::proto::kIcmp], 0);
    EXPECT_GT(mix[net::proto::kUdp], 0);
    EXPECT_GT(mix[net::proto::kTcp], 0);

    const auto recorded = static_cast<std::int64_t>(
        slot.wan_tap.records().size());
    EXPECT_EQ(send_lost_datagram(), (std::vector<std::int64_t>{recorded}));
    EXPECT_EQ(slot.wan_tap.records().size(),
              static_cast<std::size_t>(recorded) + 1);
    tb.server().tcp_close_listener(lst);
}
