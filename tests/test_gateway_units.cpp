// Direct unit tests of the gateway internals: BindingTable lifecycle and
// port policies, FwdPath service model, and NatEngine translation on raw
// packets (without a testbed around them).
#include <gtest/gtest.h>

#include "gateway/binding_table.hpp"
#include "gateway/fwd_path.hpp"
#include "gateway/nat_engine.hpp"
#include "harness/testbed.hpp"
#include "net/checksum.hpp"
#include "net/icmp.hpp"
#include "net/tcp_header.hpp"
#include "net/udp.hpp"
#include "util/assert.hpp"
#include "engine_datagrams.hpp"

using namespace gatekit;
using namespace gatekit::gateway;
using testutil::hairpin;
using testutil::inbound;
using testutil::outbound;

namespace {

const net::Ipv4Addr kClient(192, 168, 1, 100);
const net::Ipv4Addr kWan(10, 0, 1, 10);
const net::Ipv4Addr kServer(10, 0, 1, 1);

FlowKey flow(std::uint16_t sport, std::uint16_t dport = 7000) {
    return FlowKey{net::proto::kUdp, {kClient, sport}, {kServer, dport}};
}

DeviceProfile quick_profile() {
    DeviceProfile p;
    p.tag = "unit";
    p.udp.initial = std::chrono::seconds(30);
    p.udp.inbound_refresh = std::chrono::seconds(60);
    p.udp.outbound_refresh = std::chrono::seconds(90);
    return p;
}

net::Ipv4Packet udp_packet(std::uint16_t sport, std::uint16_t dport,
                           net::Bytes payload = {1}) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kUdp;
    pkt.h.src = kClient;
    pkt.h.dst = kServer;
    net::UdpDatagram d;
    d.src_port = sport;
    d.dst_port = dport;
    d.payload = std::move(payload);
    pkt.payload = d.serialize(pkt.h.src, pkt.h.dst);
    return pkt;
}

} // namespace

TEST(BindingTable, CreateFindExpire) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    BindingTable table(loop, profile, net::proto::kUdp);

    Binding* b = table.find_or_create_outbound(flow(40000));
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->external_port, 40000); // preserved
    EXPECT_EQ(table.size(), 1u);
    EXPECT_NE(table.find_inbound(40000, {kServer, 7000}), nullptr);
    // Wrong remote endpoint: endpoint-dependent filtering rejects.
    EXPECT_EQ(table.find_inbound(40000, {kServer, 7001}), nullptr);

    loop.run_until(loop.now() + std::chrono::seconds(31));
    EXPECT_EQ(table.find_inbound(40000, {kServer, 7000}), nullptr);
    EXPECT_EQ(table.size(), 0u);
}

TEST(BindingTable, RefreshExtendsLifetime) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    BindingTable table(loop, profile, net::proto::kUdp);
    Binding* b = table.find_or_create_outbound(flow(40000));
    loop.run_until(loop.now() + std::chrono::seconds(25));
    table.refresh(*b, std::chrono::seconds(60));
    loop.run_until(loop.now() + std::chrono::seconds(50));
    EXPECT_NE(table.find_inbound(40000, {kServer, 7000}), nullptr);
    loop.run_until(loop.now() + std::chrono::seconds(11));
    EXPECT_EQ(table.find_inbound(40000, {kServer, 7000}), nullptr);
}

TEST(BindingTable, SameInternalEndpointSharesExternalPort) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    BindingTable table(loop, profile, net::proto::kUdp);
    Binding* b1 = table.find_or_create_outbound(flow(40000, 7000));
    Binding* b2 = table.find_or_create_outbound(flow(40000, 7001));
    ASSERT_NE(b1, nullptr);
    ASSERT_NE(b2, nullptr);
    // RFC 4787 endpoint-independent mapping.
    EXPECT_EQ(b1->external_port, 40000);
    EXPECT_EQ(b2->external_port, 40000);
    // Inbound demux still separates the flows by remote endpoint.
    EXPECT_EQ(table.find_inbound(40000, {kServer, 7000})->key.remote.port,
              7000);
    EXPECT_EQ(table.find_inbound(40000, {kServer, 7001})->key.remote.port,
              7001);
}

TEST(BindingTable, DifferentInternalEndpointGetsPoolPort) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    BindingTable table(loop, profile, net::proto::kUdp);
    Binding* b1 = table.find_or_create_outbound(flow(40000));
    FlowKey other{net::proto::kUdp,
                  {net::Ipv4Addr(192, 168, 1, 101), 40000},
                  {kServer, 7000}};
    Binding* b2 = table.find_or_create_outbound(other);
    ASSERT_NE(b2, nullptr);
    EXPECT_EQ(b1->external_port, 40000);
    EXPECT_EQ(b2->external_port, profile.pool_begin);
}

TEST(BindingTable, QuarantineForcesFreshPort) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    profile.port_quarantine = std::chrono::minutes(2);
    BindingTable table(loop, profile, net::proto::kUdp);
    Binding* b1 = table.find_or_create_outbound(flow(40000));
    EXPECT_EQ(b1->external_port, 40000);
    loop.run_until(loop.now() + std::chrono::seconds(31)); // expire
    // Recreate within the quarantine window: a new port.
    Binding* b2 = table.find_or_create_outbound(flow(40000));
    ASSERT_NE(b2, nullptr);
    EXPECT_EQ(b2->external_port, profile.pool_begin);
    // After quarantine it preserves again.
    loop.run_until(loop.now() + std::chrono::minutes(3));
    Binding* b3 = table.find_or_create_outbound(flow(40001));
    EXPECT_EQ(b3->external_port, 40001);
}

TEST(BindingTable, CapacityLimitAndRemove) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    profile.max_tcp_bindings = 2;
    BindingTable table(loop, profile, net::proto::kUdp);
    EXPECT_NE(table.find_or_create_outbound(flow(40000)), nullptr);
    EXPECT_NE(table.find_or_create_outbound(flow(40001)), nullptr);
    EXPECT_EQ(table.find_or_create_outbound(flow(40002)), nullptr);
    table.remove(flow(40000));
    EXPECT_NE(table.find_or_create_outbound(flow(40002)), nullptr);
}

TEST(BindingTable, SequentialPoolWrapsAndExhausts) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    profile.port_allocation = PortAllocation::Sequential;
    profile.pool_begin = 20000;
    profile.pool_end = 20002; // three ports
    profile.max_tcp_bindings = 10;
    BindingTable table(loop, profile, net::proto::kUdp);
    EXPECT_EQ(table.find_or_create_outbound(flow(1))->external_port, 20000);
    EXPECT_EQ(table.find_or_create_outbound(flow(2))->external_port, 20001);
    EXPECT_EQ(table.find_or_create_outbound(flow(3))->external_port, 20002);
    EXPECT_EQ(table.find_or_create_outbound(flow(4)), nullptr); // exhausted
}

TEST(FwdPath, ServiceRateIsExact) {
    sim::EventLoop loop;
    ForwardingModel m;
    m.up_mbps = 20;
    m.down_mbps = 50;
    m.aggregate_mbps = 60;
    m.buffer_up_bytes = 1'000'000;
    m.processing_delay = sim::Duration::zero();
    FwdPath fwd(loop, m);
    int delivered = 0;
    sim::TimePoint last{};
    for (int i = 0; i < 100; ++i)
        fwd.submit(Direction::Up, 1500, [&] {
            ++delivered;
            last = loop.now();
        });
    loop.run();
    EXPECT_EQ(delivered, 100);
    EXPECT_NEAR(100 * 1500 * 8 / sim::to_sec(last) / 1e6, 20.0, 0.5);
}

TEST(FwdPath, DropTailHonorsBufferBytes) {
    sim::EventLoop loop;
    ForwardingModel m;
    m.buffer_up_bytes = 4500; // three 1500-byte packets
    FwdPath fwd(loop, m);
    int delivered = 0;
    int accepted = 0;
    for (int i = 0; i < 10; ++i)
        accepted += fwd.submit(Direction::Up, 1500, [&] { ++delivered; });
    loop.run();
    // One in service immediately plus three queued.
    EXPECT_EQ(accepted, 4);
    EXPECT_EQ(delivered, 4);
    EXPECT_EQ(fwd.drops(Direction::Up), 6u);
}

TEST(FwdPath, AggregateSharedAcrossDirections) {
    sim::EventLoop loop;
    ForwardingModel m;
    m.up_mbps = m.down_mbps = 100;
    m.aggregate_mbps = 100; // the CPU is the bottleneck
    m.buffer_up_bytes = m.buffer_down_bytes = 1'000'000;
    m.processing_delay = sim::Duration::zero();
    FwdPath fwd(loop, m);
    int up = 0, down = 0;
    sim::TimePoint last{};
    for (int i = 0; i < 100; ++i) {
        fwd.submit(Direction::Up, 1500, [&] { ++up; last = loop.now(); });
        fwd.submit(Direction::Down, 1500, [&] { ++down; last = loop.now(); });
    }
    loop.run();
    EXPECT_EQ(up + down, 200);
    const double mbps = 200 * 1500 * 8 / sim::to_sec(last) / 1e6;
    EXPECT_NEAR(mbps, 100.0, 2.0); // combined == aggregate
    EXPECT_NEAR(up, down, 2);      // round-robin fairness
}

TEST(FwdPath, ForwardingTickQuantizesDelivery) {
    sim::EventLoop loop;
    ForwardingModel m;
    m.processing_delay = sim::Duration::zero();
    m.forwarding_tick = std::chrono::milliseconds(10);
    FwdPath fwd(loop, m);
    std::vector<sim::TimePoint> at;
    fwd.submit(Direction::Up, 1500, [&] { at.push_back(loop.now()); });
    loop.run();
    ASSERT_EQ(at.size(), 1u);
    EXPECT_EQ(at[0].count() % std::chrono::milliseconds(10).count(), 0);
}

TEST(NatEngine, UdpOutboundTranslatesAndFixesChecksums) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    nat.set_addresses(kWan);

    const auto out = outbound(nat, udp_packet(40000, 7000, {'h', 'i'}));
    ASSERT_TRUE(out.has_value());
    const auto pkt = net::Ipv4Packet::parse(*out);
    EXPECT_EQ(pkt.h.src, kWan);
    EXPECT_EQ(pkt.h.dst, kServer);
    EXPECT_TRUE(pkt.h.checksum_ok);
    EXPECT_EQ(pkt.h.ttl, 63); // decremented
    const auto d = net::UdpDatagram::parse(pkt.payload, pkt.h.src, pkt.h.dst);
    EXPECT_EQ(d.src_port, 40000);
    EXPECT_TRUE(d.checksum_ok); // rewritten for the new pseudo-header
    EXPECT_EQ(d.payload, (net::Bytes{'h', 'i'}));
}

TEST(NatEngine, RoundTripIsInvertible) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    nat.set_addresses(kWan);

    const auto out = outbound(nat, udp_packet(40000, 7000, {'q'}));
    ASSERT_TRUE(out.has_value());

    // Fabricate the server's reply to the translated packet.
    net::Ipv4Packet reply;
    reply.h.protocol = net::proto::kUdp;
    reply.h.src = kServer;
    reply.h.dst = kWan;
    net::UdpDatagram rd;
    rd.src_port = 7000;
    rd.dst_port = 40000;
    rd.payload = {'r'};
    reply.payload = rd.serialize(reply.h.src, reply.h.dst);

    bool handled = false;
    const auto in = inbound(nat, reply, handled);
    EXPECT_TRUE(handled);
    ASSERT_TRUE(in.has_value());
    const auto pkt = net::Ipv4Packet::parse(*in);
    EXPECT_EQ(pkt.h.dst, kClient);
    const auto d = net::UdpDatagram::parse(pkt.payload, pkt.h.src, pkt.h.dst);
    EXPECT_EQ(d.dst_port, 40000);
    EXPECT_TRUE(d.checksum_ok);
}

TEST(NatEngine, InboundWithoutBindingIsNotHandled) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    nat.set_addresses(kWan);

    net::Ipv4Packet stray;
    stray.h.protocol = net::proto::kUdp;
    stray.h.src = kServer;
    stray.h.dst = kWan;
    net::UdpDatagram d;
    d.src_port = 9999;
    d.dst_port = 68; // the gateway's own DHCP client port
    stray.payload = d.serialize(stray.h.src, stray.h.dst);
    bool handled = true;
    const auto in = inbound(nat, stray, handled);
    EXPECT_FALSE(handled); // falls through to the gateway's own stack
    EXPECT_FALSE(in.has_value());
}

TEST(NatEngine, TcpRstRemovesBindingImmediately) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    nat.set_addresses(kWan);

    net::Ipv4Packet syn;
    syn.h.protocol = net::proto::kTcp;
    syn.h.src = kClient;
    syn.h.dst = kServer;
    net::TcpSegment seg;
    seg.src_port = 41000;
    seg.dst_port = 80;
    seg.flags.syn = true;
    syn.payload = seg.serialize(syn.h.src, syn.h.dst);
    ASSERT_TRUE(outbound(nat, syn).has_value());
    EXPECT_EQ(nat.tcp_table().size(), 1u);

    seg.flags = {};
    seg.flags.rst = true;
    syn.payload = seg.serialize(syn.h.src, syn.h.dst);
    ASSERT_TRUE(outbound(nat, syn).has_value());
    EXPECT_EQ(nat.tcp_table().size(), 0u);
}

TEST(NatEngine, HairpinRequiresKnobAndBinding) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    profile.hairpin = true;
    NatEngine nat(loop, profile);
    nat.set_addresses(kWan);

    // No binding yet: nothing to hairpin to.
    net::Ipv4Packet probe;
    probe.h.protocol = net::proto::kUdp;
    probe.h.src = kClient;
    probe.h.dst = kWan;
    net::UdpDatagram d;
    d.src_port = 40001;
    d.dst_port = 40000;
    probe.payload = d.serialize(probe.h.src, probe.h.dst);
    EXPECT_FALSE(hairpin(nat, probe).has_value());

    // Create the target binding, then hairpin succeeds.
    ASSERT_TRUE(outbound(nat, udp_packet(40000, 7000)).has_value());
    const auto hp = hairpin(nat, probe);
    ASSERT_TRUE(hp.has_value());
    const auto pkt = net::Ipv4Packet::parse(*hp);
    EXPECT_EQ(pkt.h.src, kWan);
    EXPECT_EQ(pkt.h.dst, kClient);
}

TEST(NatEngine, UnconfiguredEngineViolatesContract) {
    sim::EventLoop loop;
    auto profile = quick_profile();
    NatEngine nat(loop, profile);
    EXPECT_THROW(outbound(nat, udp_packet(1, 2)), gatekit::ContractViolation);
}

// --- Golden corpus: exact bytes out of the UDP/TCP translator -----------
//
// Pinned wire bytes and binding state for the packet shapes that need
// more than an address/port rewrite: IP options (Record Route honored or
// ignored, NOP/EOL padding), a UDP length shorter than the IP payload, a
// TTL-1 packet arriving on a live binding, and hairpin. Every checksum in
// these packets is correct on input, so the expected bytes are the same
// whether the translator re-serializes or rewrites in place.

namespace {

struct NatBed {
    sim::EventLoop loop;
    DeviceProfile profile;
    NatEngine nat;
    explicit NatBed(DeviceProfile p = quick_profile())
        : profile(std::move(p)), nat(loop, profile) {
        nat.set_addresses(kWan);
    }
};

net::Ipv4Packet udp_reply(std::uint16_t dport, net::Bytes payload = {'r'}) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kUdp;
    pkt.h.src = kServer;
    pkt.h.dst = kWan;
    pkt.h.id = 0x4242;
    net::UdpDatagram d;
    d.src_port = 7000;
    d.dst_port = dport;
    d.payload = std::move(payload);
    pkt.payload = d.serialize(pkt.h.src, pkt.h.dst);
    return pkt;
}

std::string wire(const std::optional<net::Bytes>& b) {
    return b ? net::hexdump(*b) : std::string("<dropped>");
}

} // namespace

TEST(NatGolden, RecordRouteFilledWhenHonored) {
    auto profile = quick_profile();
    profile.honor_record_route = true;
    NatBed bed(profile);
    auto pkt = udp_packet(40000, 7000, {'r', 'r'});
    pkt.h.id = 0x1234;
    pkt.h.options = net::Ipv4Packet::make_record_route_option(4);
    EXPECT_EQ(wire(outbound(bed.nat, pkt)),
              "4a 00 00 32 12 34 00 00 3f 11 35 5f 0a 00 01 0a 0a 00 01 01 07 "
              "13 08 0a 00 01 0a 00 00 00 00 00 00 00 00 00 00 00 00 00 9c 40 "
              "1b 58 00 0a bf c4 72 72");
    auto reply = udp_reply(40000);
    reply.h.options = net::Ipv4Packet::make_record_route_option(4);
    bool handled = false;
    EXPECT_EQ(wire(inbound(bed.nat, reply, handled)),
              "4a 00 00 31 42 42 00 00 3f 11 4e 4f 0a 00 01 01 c0 a8 01 64 07 "
              "13 08 0a 00 01 0a 00 00 00 00 00 00 00 00 00 00 00 00 00 1b 58 "
              "9c 40 00 09 09 36 72");
    EXPECT_TRUE(handled);
}

TEST(NatGolden, RecordRouteUntouchedWhenIgnored) {
    NatBed bed; // honor_record_route defaults to false
    auto pkt = udp_packet(40000, 7000, {'r', 'r'});
    pkt.h.id = 0x1234;
    pkt.h.options = net::Ipv4Packet::make_record_route_option(4);
    EXPECT_EQ(wire(outbound(bed.nat, pkt)),
              "4a 00 00 32 12 34 00 00 3f 11 43 6a 0a 00 01 0a 0a 00 01 01 07 "
              "13 04 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 9c 40 "
              "1b 58 00 0a bf c4 72 72");
}

TEST(NatGolden, NopEolOptionsCarriedVerbatim) {
    NatBed bed;
    auto pkt = udp_packet(40000, 7000, {'o'});
    pkt.h.options = {net::ipopt::kNop, net::ipopt::kNop, net::ipopt::kNop,
                     net::ipopt::kEnd};
    EXPECT_EQ(wire(outbound(bed.nat, pkt)),
              "46 00 00 21 00 00 00 00 3f 11 62 c1 0a 00 01 0a 0a 00 01 01 01 "
              "01 01 00 9c 40 1b 58 00 09 c3 38 6f");

    // A TCP SYN with a TCP option behind the same IP options.
    net::Ipv4Packet syn;
    syn.h.protocol = net::proto::kTcp;
    syn.h.src = kClient;
    syn.h.dst = kServer;
    syn.h.options = {net::ipopt::kNop, net::ipopt::kEnd, 0x00, 0x00};
    net::TcpSegment seg;
    seg.src_port = 41000;
    seg.dst_port = 80;
    seg.seq = 0x01020304;
    seg.flags.syn = true;
    seg.window = 8192;
    seg.add_mss_option(1460);
    syn.payload = seg.serialize(syn.h.src, syn.h.dst);
    EXPECT_EQ(wire(outbound(bed.nat, syn)),
              "46 00 00 30 00 00 00 00 3f 06 63 be 0a 00 01 0a 0a 00 01 01 01 "
              "00 00 00 a0 28 00 50 01 02 03 04 00 00 00 00 60 02 20 00 bd 9d "
              "00 00 02 04 05 b4");
}

TEST(NatGolden, ShortUdpLengthTrimsTrailingBytes) {
    NatBed bed;
    auto pkt = udp_packet(40000, 7000, {'a', 'b', 'c'});
    // Trailing bytes past the UDP length: not part of the datagram, so
    // they leave the translator trimmed off.
    pkt.payload.insert(pkt.payload.end(), {0xde, 0xad, 0xbe, 0xef});
    EXPECT_EQ(wire(outbound(bed.nat, pkt)),
              "45 00 00 1f 00 00 00 00 3f 11 65 c4 0a 00 01 0a 0a 00 01 01 9c "
              "40 1b 58 00 0b 6d d2 61 62 63");

    // A UDP length past the payload is malformed: dropped, no binding.
    auto bad = udp_packet(40001, 7000, {'a', 'b', 'c'});
    bad.payload.resize(bad.payload.size() - 2);
    EXPECT_FALSE(outbound(bed.nat, bad).has_value());
    EXPECT_EQ(bed.nat.udp_table().size(), 1u);
}

TEST(NatGolden, InboundTtlOneOnLiveBindingRefreshesAndRewrites) {
    NatBed bed;
    ASSERT_TRUE(outbound(bed.nat, udp_packet(40000, 7000)).has_value());
    bed.loop.run_for(std::chrono::seconds(5));
    auto reply = udp_reply(40000);
    reply.h.ttl = 1;
    bool handled = false;
    // The engine translates (the caller turns TTL expiry into a Time
    // Exceeded that quotes the untouched packet); the binding is
    // refreshed by the inbound packet all the same.
    EXPECT_EQ(wire(inbound(bed.nat, reply, handled)),
              "45 00 00 1d 42 42 00 00 00 11 ab 81 0a 00 01 01 c0 a8 01 64 1b "
              "58 9c 40 00 09 09 36 72");
    EXPECT_TRUE(handled);
    const Binding* b = bed.nat.udp_table().find_outbound(flow(40000));
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(b->confirmed);
    EXPECT_EQ(b->packets_out, 1u);
    EXPECT_EQ(b->packets_in, 1u);
    EXPECT_EQ(b->external_port, 40000);
    EXPECT_EQ(b->expires_at,
              sim::TimePoint{} + std::chrono::seconds(5 + 60));
}

TEST(NatGolden, TcpHandshakeAndTeardownBytes) {
    NatBed bed;
    auto tcp = [](net::Ipv4Addr src, net::Ipv4Addr dst, std::uint16_t sp,
                  std::uint16_t dp, net::TcpFlags f) {
        net::Ipv4Packet p;
        p.h.protocol = net::proto::kTcp;
        p.h.src = src;
        p.h.dst = dst;
        net::TcpSegment s;
        s.src_port = sp;
        s.dst_port = dp;
        s.seq = 1000;
        s.ack = f.ack ? 2000 : 0;
        s.flags = f;
        s.window = 4096;
        s.payload = {'t'};
        p.payload = s.serialize(src, dst);
        return p;
    };
    const FlowKey key{net::proto::kTcp, {kClient, 41000}, {kServer, 80}};
    bool handled = false;
    EXPECT_EQ(wire(outbound(
                  bed.nat,
                  tcp(kClient, kServer, 41000, 80, {.syn = true}))),
              "45 00 00 29 00 00 00 00 3f 06 65 c5 0a 00 01 0a 0a 00 01 01 a0 "
              "28 00 50 00 00 03 e8 00 00 00 00 50 02 10 00 71 76 00 00 74");
    EXPECT_EQ(wire(inbound(
                  bed.nat,
                  tcp(kServer, kWan, 80, 41000, {.syn = true, .ack = true}),
                  handled)),
              "45 00 00 29 00 00 00 00 3f 06 ae c2 0a 00 01 01 c0 a8 01 64 00 "
              "50 a0 28 00 00 03 e8 00 00 07 d0 50 12 10 00 b2 93 00 00 74");
    EXPECT_EQ(wire(outbound(
                  bed.nat,
                  tcp(kClient, kServer, 41000, 80, {.ack = true}))),
              "45 00 00 29 00 00 00 00 3f 06 65 c5 0a 00 01 0a 0a 00 01 01 a0 "
              "28 00 50 00 00 03 e8 00 00 07 d0 50 10 10 00 69 98 00 00 74");
    EXPECT_TRUE(bed.nat.tcp_table().find_outbound(key)->established);
    EXPECT_EQ(wire(outbound(bed.nat, tcp(kClient, kServer, 41000, 80,
                                        {.ack = true, .fin = true}))),
              "45 00 00 29 00 00 00 00 3f 06 65 c5 0a 00 01 0a 0a 00 01 01 a0 "
              "28 00 50 00 00 03 e8 00 00 07 d0 50 11 10 00 69 97 00 00 74");
    EXPECT_EQ(wire(inbound(
                  bed.nat,
                  tcp(kServer, kWan, 80, 41000, {.ack = true, .fin = true}),
                  handled)),
              "45 00 00 29 00 00 00 00 3f 06 ae c2 0a 00 01 01 c0 a8 01 64 00 "
              "50 a0 28 00 00 03 e8 00 00 07 d0 50 11 10 00 b2 94 00 00 74");
    const Binding* b = bed.nat.tcp_table().find_outbound(key);
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(b->fin_in && b->fin_out);
    EXPECT_EQ(b->expires_at, bed.loop.now() + bed.profile.tcp_fin_linger);
    EXPECT_EQ(wire(inbound(
                  bed.nat,
                  tcp(kServer, kWan, 80, 41000, {.rst = true}), handled)),
              "45 00 00 29 00 00 00 00 3f 06 ae c2 0a 00 01 01 c0 a8 01 64 00 "
              "50 a0 28 00 00 03 e8 00 00 00 00 50 04 10 00 ba 71 00 00 74");
    EXPECT_EQ(bed.nat.tcp_table().size(), 0u);
}

TEST(NatGolden, HairpinBytesAndSenderBinding) {
    auto profile = quick_profile();
    profile.hairpin = true;
    NatBed bed(profile);
    ASSERT_TRUE(outbound(bed.nat, udp_packet(40000, 7000)).has_value());
    net::Ipv4Packet probe;
    probe.h.protocol = net::proto::kUdp;
    probe.h.src = net::Ipv4Addr(192, 168, 1, 101);
    probe.h.dst = kWan;
    probe.h.id = 7;
    net::UdpDatagram d;
    d.src_port = 40001;
    d.dst_port = 40000;
    d.payload = {'h', 'p'};
    probe.payload = d.serialize(probe.h.src, probe.h.dst);
    EXPECT_EQ(wire(hairpin(bed.nat, probe)),
              "45 00 00 1e 00 07 00 00 3f 11 ae b2 0a 00 01 0a c0 a8 01 64 9c "
              "41 9c 40 00 0a 91 d1 68 70");
    const Binding* sender = bed.nat.udp_table().find_outbound(FlowKey{
        net::proto::kUdp, {probe.h.src, 40001}, {kWan, 40000}});
    ASSERT_NE(sender, nullptr);
    EXPECT_EQ(sender->external_port, 40001);
    EXPECT_EQ(sender->packets_out, 1u);
    EXPECT_EQ(sender->expires_at,
              sim::TimePoint{} + std::chrono::seconds(30));
}

// A UDP checksum of 0 means "no checksum" (RFC 768). The translator
// leaves it 0, as Linux nf_nat does, rather than inventing one.
TEST(NatGolden, ZeroUdpChecksumStaysZero) {
    NatBed bed;
    auto pkt = udp_packet(40000, 7000, {'z'});
    pkt.payload[6] = 0;
    pkt.payload[7] = 0;
    const auto out = outbound(bed.nat, pkt);
    EXPECT_EQ(wire(out),
              "45 00 00 1d 00 00 00 00 3f 11 65 c6 0a 00 01 0a 0a 00 01 01 9c "
              "40 1b 58 00 09 00 00 7a");
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ((*out)[26], 0);
    EXPECT_EQ((*out)[27], 0);
}

// Regression: an IP fragment used to reach the UDP/TCP translator, which
// read a non-first fragment's payload as a transport header — creating a
// binding on whatever "ports" the payload held and rewriting payload
// bytes — and re-checksummed a first TCP fragment over that fragment
// alone. UDP/TCP fragments are now dropped by policy in both directions.
TEST(NatEngine, FragmentsAreDroppedNotTranslated) {
    NatBed bed;
    net::Ipv4Packet frag;
    frag.h.protocol = net::proto::kUdp;
    frag.h.src = kClient;
    frag.h.dst = kServer;
    frag.h.frag_offset = 64; // mid-stream: the "header" is payload
    frag.payload = {0x12, 0x34, 0x1b, 0x58, 0x00, 0x10, 0x00, 0x00,
                    'p',  'a',  'y',  'l',  'o',  'a',  'd',  '!'};
    EXPECT_FALSE(outbound(bed.nat, frag).has_value());
    EXPECT_EQ(bed.nat.udp_table().size(), 0u);

    // First TCP fragment: a complete header, but only part of the data
    // the checksum covers.
    net::Ipv4Packet first;
    first.h.protocol = net::proto::kTcp;
    first.h.src = kClient;
    first.h.dst = kServer;
    first.h.more_fragments = true;
    net::TcpSegment seg;
    seg.src_port = 41000;
    seg.dst_port = 80;
    seg.flags.syn = true;
    seg.payload.assign(64, 'x');
    first.payload = seg.serialize(first.h.src, first.h.dst);
    first.payload.resize(40);
    EXPECT_FALSE(outbound(bed.nat, first).has_value());
    EXPECT_EQ(bed.nat.tcp_table().size(), 0u);

    // Inbound, a fragment aimed at a live binding's port is the NAT's to
    // drop, not the gateway stack's to parse.
    ASSERT_TRUE(outbound(bed.nat, udp_packet(40000, 7000)).has_value());
    auto reply = udp_reply(40000);
    reply.h.more_fragments = true;
    bool handled = false;
    EXPECT_FALSE(inbound(bed.nat, reply, handled).has_value());
    EXPECT_TRUE(handled);
    EXPECT_EQ(bed.nat.udp_table().find_outbound(flow(40000))->packets_in,
              0u);
    EXPECT_EQ(bed.nat.stats().dropped_policy, 3u);
}

// --- Golden corpus: exact bytes out of the ICMP and IP-only paths --------
//
// Echo query translation, inbound errors quoting UDP/TCP/ICMP flows under
// each embedded-quote profile knob, ICMP->RST, the hardening verdicts,
// an error code no rule classifies, and unknown transports (IP-only,
// untranslated, dropped). Every checksum in these packets is correct on
// input unless a test says otherwise.

namespace {

DeviceProfile icmp_profile() {
    auto p = quick_profile();
    p.icmp_tcp = IcmpTranslationSet::all();
    p.icmp_udp = IcmpTranslationSet::all();
    // External port != internal port, so a quote's port rewrite shows.
    p.port_allocation = PortAllocation::Sequential;
    return p;
}

net::Ipv4Packet icmp_packet(net::Ipv4Addr src, net::Ipv4Addr dst,
                            const net::IcmpMessage& m, std::uint16_t id = 0) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kIcmp;
    pkt.h.src = src;
    pkt.h.dst = dst;
    pkt.h.id = id;
    pkt.payload = m.serialize();
    return pkt;
}

/// The server's ICMP error about a datagram the NAT sent it.
net::Ipv4Packet error_to_wan(const net::Bytes& quoted, net::IcmpType type,
                             std::uint8_t code) {
    return icmp_packet(kServer, kWan,
                       net::IcmpMessage::make_error(type, code, 0, quoted),
                       0x0e0e);
}

net::Ipv4Packet tcp_syn(std::uint16_t sport) {
    net::Ipv4Packet p;
    p.h.protocol = net::proto::kTcp;
    p.h.src = kClient;
    p.h.dst = kServer;
    net::TcpSegment s;
    s.src_port = sport;
    s.dst_port = 80;
    s.seq = 0x0a0b0c0d;
    s.flags.syn = true;
    s.window = 1024;
    p.payload = s.serialize(p.h.src, p.h.dst);
    return p;
}

net::Ipv4Packet unknown_proto_packet(net::Ipv4Addr src, net::Ipv4Addr dst) {
    net::Ipv4Packet p;
    p.h.protocol = net::proto::kDccp;
    p.h.src = src;
    p.h.dst = dst;
    p.h.id = 0x3333;
    // Opaque transport bytes: an IP-only rewrite must leave them as-is.
    p.payload = {0x9c, 0x40, 0x1b, 0x58, 0x05, 0x00, 0xab, 0xcd};
    return p;
}

} // namespace

TEST(NatGolden, EchoOutAndReplyIn) {
    auto profile = icmp_profile();
    profile.honor_record_route = true;
    NatBed bed(profile);
    auto echo = icmp_packet(kClient, kServer,
                            net::IcmpMessage::make_echo(false, 0x1234, 1,
                                                        {'p', 'i', 'n', 'g'}),
                            0x0101);
    echo.h.options = net::Ipv4Packet::make_record_route_option(2);
    EXPECT_EQ(wire(outbound(bed.nat, echo)),
              "48 00 00 2c 01 01 00 00 3f 01 48 b0 0a 00 01 0a 0a 00 01 01 07 "
              "0b 08 0a 00 01 0a 00 00 00 00 00 08 00 06 fa 12 34 00 01 70 69 "
              "6e 67");
    EXPECT_EQ(bed.nat.icmp_query_count(), 1u);

    bool handled = false;
    auto reply = icmp_packet(kServer, kWan,
                             net::IcmpMessage::make_echo(true, 0x1234, 1,
                                                         {'p', 'i', 'n', 'g'}),
                             0x0202);
    EXPECT_EQ(wire(inbound(bed.nat, reply, handled)),
              "45 00 00 20 02 02 00 00 3f 01 ac ce 0a 00 01 01 c0 a8 01 64 00 "
              "00 0e fa 12 34 00 01 70 69 6e 67");
    EXPECT_TRUE(handled);
    // A reply with an id no query used is the gateway's own.
    handled = true;
    EXPECT_FALSE(inbound(bed.nat,
                         icmp_packet(kServer, kWan,
                                     net::IcmpMessage::make_echo(
                                         true, 0x4321, 1)),
                         handled)
                     .has_value());
    EXPECT_FALSE(handled);
}

TEST(NatGolden, InboundUdpAndTcpErrorsPerEmbeddedKnob) {
    struct Case {
        bool fix_ip;
        bool fix_transport;
        const char* udp;
        const char* tcp;
    };
    // Only the quote differs: its IP checksum (fix_embedded_ip_checksum)
    // and its port and UDP checksum (fix_embedded_transport).
    const Case cases[] = {
        {true, true,
         "45 00 00 38 0e 0e 00 00 3f 01 a0 aa 0a 00 01 01 c0 a8 01 64 03 03 "
         "ca 23 00 00 00 00 45 00 00 1c 00 00 00 00 3f 11 ae c4 c0 a8 01 64 "
         "0a 00 01 01 9c 40 1b 58 00 08 7b 38",
         "45 00 00 38 0e 0e 00 00 3f 01 a0 aa 0a 00 01 01 c0 a8 01 64 0b 00 "
         "3e 6f 00 00 00 00 45 00 00 28 00 00 00 00 3f 06 ae c3 c0 a8 01 64 "
         "0a 00 01 01 a0 28 00 50 0a 0b 0c 0d"},
        {false, true,
         "45 00 00 38 0e 0e 00 00 3f 01 a0 aa 0a 00 01 01 c0 a8 01 64 03 03 "
         "13 21 00 00 00 00 45 00 00 1c 00 00 00 00 3f 11 65 c7 c0 a8 01 64 "
         "0a 00 01 01 9c 40 1b 58 00 08 7b 38",
         "45 00 00 38 0e 0e 00 00 3f 01 a0 aa 0a 00 01 01 c0 a8 01 64 0b 00 "
         "87 6c 00 00 00 00 45 00 00 28 00 00 00 00 3f 06 65 c6 c0 a8 01 64 "
         "0a 00 01 01 a0 28 00 50 0a 0b 0c 0d"},
        {true, false,
         "45 00 00 38 0e 0e 00 00 3f 01 a0 aa 0a 00 01 01 c0 a8 01 64 03 03 "
         "13 21 00 00 00 00 45 00 00 1c 00 00 00 00 3f 11 ae c4 c0 a8 01 64 "
         "0a 00 01 01 4e 20 1b 58 00 08 80 5b",
         "45 00 00 38 0e 0e 00 00 3f 01 a0 aa 0a 00 01 01 c0 a8 01 64 0b 00 "
         "90 77 00 00 00 00 45 00 00 28 00 00 00 00 3f 06 ae c3 c0 a8 01 64 "
         "0a 00 01 01 4e 20 00 50 0a 0b 0c 0d"},
    };
    for (const Case& c : cases) {
        auto profile = icmp_profile();
        profile.fix_embedded_ip_checksum = c.fix_ip;
        profile.fix_embedded_transport = c.fix_transport;
        NatBed bed(profile);
        // Empty UDP payload: the whole datagram, checksum included, sits
        // inside the 8-byte quote.
        const auto udp_out = outbound(bed.nat, udp_packet(40000, 7000, {}));
        ASSERT_TRUE(udp_out.has_value());
        bool handled = false;
        EXPECT_EQ(wire(inbound(
                      bed.nat,
                      error_to_wan(*udp_out, net::IcmpType::DestUnreachable,
                                   net::icmp_code::kPortUnreachable),
                      handled)),
                  c.udp);
        EXPECT_TRUE(handled);
        const auto tcp_out = outbound(bed.nat, tcp_syn(41000));
        ASSERT_TRUE(tcp_out.has_value());
        EXPECT_EQ(wire(inbound(
                      bed.nat,
                      error_to_wan(*tcp_out, net::IcmpType::TimeExceeded,
                                   net::icmp_code::kTtlExceeded),
                      handled)),
                  c.tcp);
        EXPECT_EQ(bed.nat.stats().icmp_translated, 2u);
    }
}

TEST(NatGolden, ErrorAboutIcmpQuery) {
    for (const bool fix_ip : {true, false}) {
        auto profile = icmp_profile();
        profile.fix_embedded_ip_checksum = fix_ip;
        NatBed bed(profile);
        const auto echo_out = outbound(bed.nat, icmp_packet(
            kClient, kServer, net::IcmpMessage::make_echo(false, 0x0777, 3)));
        ASSERT_TRUE(echo_out.has_value());
        bool handled = false;
        EXPECT_EQ(wire(inbound(
                      bed.nat,
                      error_to_wan(*echo_out, net::IcmpType::DestUnreachable,
                                   net::icmp_code::kHostUnreachable),
                      handled)),
                  fix_ip ? "45 00 00 38 0e 0e 00 00 3f 01 a0 aa 0a 00 01 01 "
                           "c0 a8 01 64 03 01 fc fe 00 00 00 00 45 00 00 1c "
                           "00 00 00 00 3f 01 ae d4 c0 a8 01 64 0a 00 01 01 "
                           "08 00 f0 85 07 77 00 03"
                         : "45 00 00 38 0e 0e 00 00 3f 01 a0 aa 0a 00 01 01 "
                           "c0 a8 01 64 03 01 45 fc 00 00 00 00 45 00 00 1c "
                           "00 00 00 00 3f 01 65 d7 c0 a8 01 64 0a 00 01 01 "
                           "08 00 f0 85 07 77 00 03");
        EXPECT_TRUE(handled);
    }
    // Devices that do not translate query errors drop them as theirs.
    auto profile = icmp_profile();
    profile.icmp_query_errors_translated = false;
    NatBed bed(profile);
    const auto echo_out = outbound(bed.nat, icmp_packet(
        kClient, kServer, net::IcmpMessage::make_echo(false, 0x0777, 3)));
    ASSERT_TRUE(echo_out.has_value());
    bool handled = false;
    EXPECT_FALSE(inbound(bed.nat,
                         error_to_wan(*echo_out,
                                      net::IcmpType::DestUnreachable,
                                      net::icmp_code::kHostUnreachable),
                         handled)
                     .has_value());
    EXPECT_TRUE(handled);
    EXPECT_EQ(bed.nat.stats().icmp_dropped, 1u);
}

// Regression: the echo table's lookup for an error quoting a query
// ignored expiry, so an error about a query dead for minutes was still
// relayed to its former querier while a reply with the same id was
// refused. Both now go by the same 60 s lifetime.
TEST(NatGolden, ErrorAboutExpiredIcmpQueryIsNotRelayed) {
    NatBed bed(icmp_profile());
    const auto echo_out = outbound(bed.nat, icmp_packet(
        kClient, kServer, net::IcmpMessage::make_echo(false, 0x0777, 3)));
    ASSERT_TRUE(echo_out.has_value());
    bed.loop.run_until(bed.loop.now() + std::chrono::seconds(600));

    bool handled = false;
    EXPECT_EQ(wire(inbound(
                  bed.nat,
                  error_to_wan(*echo_out, net::IcmpType::DestUnreachable,
                               net::icmp_code::kHostUnreachable),
                  handled)),
              "<dropped>");
    EXPECT_TRUE(handled); // it quotes our address: ours to drop
    EXPECT_EQ(bed.nat.stats().icmp_translated, 0u);
    EXPECT_EQ(bed.nat.icmp_query_count(), 0u);

    handled = true;
    EXPECT_FALSE(inbound(bed.nat,
                         icmp_packet(kServer, kWan,
                                     net::IcmpMessage::make_echo(
                                         true, 0x0777, 3)),
                         handled)
                     .has_value());
    EXPECT_FALSE(handled);
}

// Regression: ICMP fragments reached the ICMP translator, which read a
// non-first fragment's data as an ICMP header: bytes that looked like an
// echo request created echo-table state, and an inbound fragment that
// looked like a reply was relayed. ICMP fragments are now dropped by
// policy in both directions, like UDP/TCP ones.
TEST(NatEngine, IcmpFragmentsAreDroppedNotTranslated) {
    NatBed bed(icmp_profile());
    net::Ipv4Packet frag;
    frag.h.protocol = net::proto::kIcmp;
    frag.h.src = kClient;
    frag.h.dst = kServer;
    frag.h.frag_offset = 100; // mid-stream: the "header" is data
    frag.payload = {0x08, 0x00, 0x00, 0x00, 0x12, 0x34, 0x00, 0x01,
                    'd',  'a',  't',  'a'};
    EXPECT_FALSE(outbound(bed.nat, frag).has_value());
    EXPECT_EQ(bed.nat.icmp_query_count(), 0u);

    // Inbound, a first fragment of a reply to a live query is the NAT's
    // to drop, not to relay.
    ASSERT_TRUE(outbound(bed.nat,
                         icmp_packet(kClient, kServer,
                                     net::IcmpMessage::make_echo(
                                         false, 0x1234, 1)))
                    .has_value());
    auto reply = icmp_packet(kServer, kWan,
                             net::IcmpMessage::make_echo(true, 0x1234, 1,
                                                         {'p', 'i', 'n', 'g'}));
    reply.h.more_fragments = true;
    bool handled = false;
    EXPECT_FALSE(inbound(bed.nat, reply, handled).has_value());
    EXPECT_TRUE(handled);
    EXPECT_EQ(bed.nat.stats().dropped_policy, 2u);
}

TEST(NatGolden, OutboundErrorCrossesWithOuterRewriteOnly) {
    NatBed bed(icmp_profile());
    // A LAN host's port unreachable about a datagram from the server.
    const auto err = icmp_packet(
        kClient, kServer,
        net::IcmpMessage::make_error(
            net::IcmpType::DestUnreachable, net::icmp_code::kPortUnreachable,
            0, udp_reply(40000).serialize()),
        0x0303);
    EXPECT_EQ(wire(outbound(bed.nat, err)),
              "45 00 00 38 03 03 00 00 3f 01 62 b8 0a 00 01 0a 0a 00 01 01 03 "
              "03 85 22 00 00 00 00 45 00 00 1d 42 42 00 00 40 11 22 84 0a 00 "
              "01 01 0a 00 01 0a 1b 58 9c 40 00 09 c0 38");
}

TEST(NatGolden, TcpErrorBecomesRst) {
    auto profile = icmp_profile();
    profile.tcp_icmp_becomes_rst = true;
    NatBed bed(profile);
    const auto tcp_out = outbound(bed.nat, tcp_syn(41000));
    ASSERT_TRUE(tcp_out.has_value());
    bool handled = false;
    EXPECT_EQ(wire(inbound(
                  bed.nat,
                  error_to_wan(*tcp_out, net::IcmpType::DestUnreachable,
                               net::icmp_code::kPortUnreachable),
                  handled)),
              "45 00 00 28 00 00 00 00 40 06 ad c3 0a 00 01 01 c0 a8 01 64 00 "
              "50 a0 28 00 00 00 00 00 00 00 00 50 04 ff ff 42 5b 00 00");
    EXPECT_TRUE(handled);
    EXPECT_EQ(bed.nat.stats().icmp_translated, 1u);
    EXPECT_EQ(bed.nat.tcp_table().size(), 1u);
}

TEST(NatGolden, TeardownAndRateLimitVerdicts) {
    auto profile = icmp_profile();
    profile.icmp_error_teardown = true;
    profile.icmp_error_rate_limit = 2;
    profile.icmp_udp = IcmpTranslationSet::all().set(
        IcmpKind::HostUnreachable, false);
    NatBed bed(profile);
    const auto a = outbound(bed.nat, udp_packet(40000, 7000, {}));
    const auto b = outbound(bed.nat, udp_packet(40001, 7000, {}));
    const auto c = outbound(bed.nat, udp_packet(40002, 7000, {}));
    ASSERT_TRUE(a && b && c);
    bool handled = false;
    // Relayed, then the binding is purged.
    EXPECT_EQ(wire(inbound(
                  bed.nat,
                  error_to_wan(*a, net::IcmpType::DestUnreachable,
                               net::icmp_code::kPortUnreachable),
                  handled)),
              "45 00 00 38 0e 0e 00 00 3f 01 a0 aa 0a 00 01 01 c0 a8 01 64 03 "
              "03 ca 23 00 00 00 00 45 00 00 1c 00 00 00 00 3f 11 ae c4 c0 a8 "
              "01 64 0a 00 01 01 9c 40 1b 58 00 08 7b 38");
    EXPECT_TRUE(handled);
    // Not relayed (the device does not translate Host Unreachable for
    // UDP), purged all the same.
    handled = false;
    EXPECT_FALSE(inbound(bed.nat,
                         error_to_wan(*b, net::IcmpType::DestUnreachable,
                                      net::icmp_code::kHostUnreachable),
                         handled)
                     .has_value());
    EXPECT_TRUE(handled);
    // Third error in the same second: over budget, dropped unparsed.
    handled = false;
    EXPECT_FALSE(inbound(bed.nat,
                         error_to_wan(*c, net::IcmpType::DestUnreachable,
                                      net::icmp_code::kPortUnreachable),
                         handled)
                     .has_value());
    EXPECT_TRUE(handled);
    EXPECT_EQ(bed.nat.udp_table().size(), 1u);
    EXPECT_EQ(bed.nat.stats().icmp_translated, 1u);
    EXPECT_EQ(bed.nat.stats().icmp_dropped, 1u);
    EXPECT_EQ(bed.nat.stats().icmp_teardowns, 2u);
    EXPECT_EQ(bed.nat.stats().icmp_rate_limited, 1u);

    // Quote validation: a quote cut after the ports is refused.
    auto strict = icmp_profile();
    strict.validate_embedded_binding = true;
    NatBed sbed(strict);
    auto d = outbound(sbed.nat, udp_packet(40000, 7000, {}));
    ASSERT_TRUE(d.has_value());
    d->resize(24);
    handled = false;
    EXPECT_FALSE(inbound(sbed.nat,
                         error_to_wan(*d, net::IcmpType::DestUnreachable,
                                      net::icmp_code::kPortUnreachable),
                         handled)
                     .has_value());
    EXPECT_TRUE(handled);
    EXPECT_EQ(sbed.nat.stats().icmp_quote_rejected, 1u);
}

TEST(NatGolden, UnclassifiedErrorCodeIsNotRelayed) {
    NatBed bed(icmp_profile());
    const auto out = outbound(bed.nat, udp_packet(40000, 7000, {}));
    ASSERT_TRUE(out.has_value());
    bool handled = true;
    // Destination Unreachable code 13 (administratively prohibited) is
    // not one the translation sets name.
    EXPECT_EQ(wire(inbound(
                  bed.nat,
                  error_to_wan(*out, net::IcmpType::DestUnreachable, 13),
                  handled)),
              "<dropped>");
    EXPECT_FALSE(handled);
    EXPECT_EQ(bed.nat.stats().icmp_translated, 0u);
}

TEST(NatGolden, UnknownTransportPolicies) {
    auto ip_only = icmp_profile();
    ip_only.unknown_proto = UnknownProtocolPolicy::TranslateIpOnly;
    NatBed bed(ip_only);
    EXPECT_EQ(wire(outbound(bed.nat, unknown_proto_packet(kClient, kServer))),
              "45 00 00 1c 33 33 00 00 3f 21 32 84 0a 00 01 0a 0a 00 01 01 9c "
              "40 1b 58 05 00 ab cd");
    EXPECT_EQ(bed.nat.ip_only_count(), 1u);
    bool handled = false;
    EXPECT_EQ(wire(inbound(bed.nat, unknown_proto_packet(kServer, kWan),
                                   handled)),
              "45 00 00 1c 33 33 00 00 3f 21 7b 81 0a 00 01 01 c0 a8 01 64 9c "
              "40 1b 58 05 00 ab cd");
    EXPECT_TRUE(handled);

    ip_only.unknown_proto_inbound_allowed = false;
    NatBed firewalled(ip_only);
    ASSERT_TRUE(outbound(firewalled.nat, unknown_proto_packet(kClient, kServer))
                    .has_value());
    handled = false;
    EXPECT_FALSE(inbound(firewalled.nat, unknown_proto_packet(kServer, kWan),
                         handled)
                     .has_value());
    EXPECT_TRUE(handled);
    EXPECT_EQ(firewalled.nat.stats().dropped_policy, 1u);

    auto plain = icmp_profile();
    plain.unknown_proto = UnknownProtocolPolicy::Untranslated;
    NatBed router(plain);
    EXPECT_EQ(wire(outbound(router.nat,
                            unknown_proto_packet(kClient, kServer))),
              "45 00 00 1c 33 33 00 00 3f 21 7b 81 c0 a8 01 64 0a 00 01 01 9c "
              "40 1b 58 05 00 ab cd");
    handled = true;
    EXPECT_FALSE(
        inbound(router.nat, unknown_proto_packet(kServer, kWan), handled)
            .has_value());
    EXPECT_FALSE(handled);

    NatBed dropper(icmp_profile()); // UnknownProtocolPolicy::Drop
    EXPECT_FALSE(outbound(dropper.nat, unknown_proto_packet(kClient, kServer))
                     .has_value());
    EXPECT_EQ(dropper.nat.stats().dropped_policy, 1u);
}

// The plain-router fallback of an Untranslated device: a WAN packet for
// a LAN address is forwarded with only its TTL changed.
TEST(NatGolden, UntranslatedWanToLanFallback) {
    sim::EventLoop loop;
    harness::Testbed tb(loop);
    auto profile = icmp_profile();
    profile.unknown_proto = UnknownProtocolPolicy::Untranslated;
    const int i = tb.add_device(profile);
    tb.start_and_wait();
    auto& slot = tb.slot(i);
    std::optional<net::Bytes> seen;
    tb.client().set_ip_observer([&](stack::Iface&, const net::Ipv4Packet& p,
                                    std::span<const std::uint8_t> raw) {
        if (p.h.protocol == net::proto::kDccp)
            seen = net::Bytes(raw.begin(), raw.end());
    });
    tb.server().add_route(net::Ipv4Addr(192, 168, 1, 0), 24, *slot.server_if,
                          slot.gw_wan_addr);
    tb.server().send_raw(
        *slot.server_if,
        unknown_proto_packet(slot.server_addr, slot.client_addr).serialize(),
        slot.gw_wan_addr);
    loop.run_for(std::chrono::milliseconds(50));
    EXPECT_EQ(wire(seen), "45 00 00 1c 33 33 00 00 3f 21 7b 81 0a 00 01 01 c0 "
                          "a8 01 64 9c 40 1b 58 05 00 ab cd");
}

// The same fallback with a TTL that expires at the gateway: nothing
// reaches the LAN, and the sender gets a Time Exceeded from the WAN
// address quoting the packet exactly as it arrived.
TEST(NatGolden, UntranslatedWanToLanTtlOneDrawsTimeExceeded) {
    sim::EventLoop loop;
    harness::Testbed tb(loop);
    auto profile = icmp_profile();
    profile.unknown_proto = UnknownProtocolPolicy::Untranslated;
    const int i = tb.add_device(profile);
    tb.start_and_wait();
    auto& slot = tb.slot(i);
    int lan_seen = 0;
    tb.client().set_ip_observer([&](stack::Iface&, const net::Ipv4Packet& p,
                                    std::span<const std::uint8_t>) {
        if (p.h.protocol == net::proto::kDccp) ++lan_seen;
    });
    std::optional<net::IcmpMessage> err;
    net::Ipv4Addr err_src;
    tb.server().set_icmp_observer(
        [&](const net::Ipv4Packet& outer, const net::IcmpMessage& m) {
            err = m;
            err_src = outer.h.src;
        });
    auto pkt = unknown_proto_packet(slot.server_addr, slot.client_addr);
    pkt.h.ttl = 1;
    const net::Bytes sent = pkt.serialize();
    tb.server().send_raw(*slot.server_if, sent, slot.gw_wan_addr);
    loop.run_for(std::chrono::milliseconds(50));
    EXPECT_EQ(lan_seen, 0);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->type, net::IcmpType::TimeExceeded);
    EXPECT_EQ(err_src, slot.gw_wan_addr);
    EXPECT_EQ(err->payload, sent); // 20-byte header + all 8 payload bytes
}
