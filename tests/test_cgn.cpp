// Carrier-grade NAT and NAT444 cascaded topologies: CgnEngine unit tests
// (deterministic port blocks, shared-pool exhaustion, EIM/EDM, hairpin,
// embedded-quote rewriting) plus end-to-end regression tests for the
// multi-hop bugs the cascade flushed out — off-subnet ARP blackholes,
// missing Time Exceeded at the second hop, and stale checksums in
// double-translated ICMP quotes.
#include "gateway/cgn.hpp"

#include <gtest/gtest.h>

#include "harness/holepunch.hpp"
#include "harness/testbed.hpp"
#include "net/checksum.hpp"
#include "net/icmp.hpp"
#include "net/tcp_header.hpp"
#include "net/udp.hpp"
#include "testutil.hpp"
#include "engine_datagrams.hpp"

using namespace gatekit;
using namespace gatekit::gateway;
using harness::Testbed;
using testutil::Net2;
using testutil::hairpin;
using testutil::inbound;
using testutil::outbound;

namespace {

const net::Ipv4Addr kAccess(100, 64, 0, 1);
const net::Ipv4Addr kExternal(198, 51, 100, 7);
const net::Ipv4Addr kRemote(10, 0, 9, 9);

net::Ipv4Packet udp_pkt(net::Ipv4Addr src, std::uint16_t sport,
                        net::Ipv4Addr dst, std::uint16_t dport,
                        net::Bytes payload = {1}) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kUdp;
    pkt.h.src = src;
    pkt.h.dst = dst;
    pkt.h.ttl = 64;
    net::UdpDatagram d;
    d.src_port = sport;
    d.dst_port = dport;
    d.payload = std::move(payload);
    pkt.payload = d.serialize(src, dst);
    return pkt;
}

std::uint16_t udp_src_port(const net::Bytes& wire) {
    const auto pkt = net::Ipv4Packet::parse(wire);
    return net::UdpDatagram::parse(pkt.payload, pkt.h.src, pkt.h.dst)
        .src_port;
}

struct EngineBed {
    sim::EventLoop loop;
    CgnEngine engine;
    explicit EngineBed(CgnConfig cfg = {}) : engine(loop, cfg) {
        engine.set_addresses(kAccess, 24, kExternal);
    }
};

/// Valid IPv4 header iff the RFC 1071 sum over it (checksum included)
/// folds to zero.
bool ip_header_checksum_ok(std::span<const std::uint8_t> quote) {
    if (quote.size() < 20) return false;
    const std::size_t ihl = static_cast<std::size_t>(quote[0] & 0xf) * 4;
    if (quote.size() < ihl) return false;
    return net::internet_checksum(quote.subspan(0, ihl)) == 0;
}

} // namespace

// --- Satellite: off-subnet ARP blackhole (stack::Iface) -------------------

// Regression: send_ip_raw with an off-subnet next hop used to broadcast
// ARP requests no one on the segment answers, parking the datagram
// behind a doomed resolution until the retry budget dropped it. The
// interface must resolve its configured gateway instead.
TEST(Netif, OffSubnetSendResolvesGatewayNotDestination) {
    Net2 net;
    net.ia.set_gateway(net::Ipv4Addr(10, 0, 0, 2)); // host b

    const net::Ipv4Addr far(192, 168, 7, 7);
    bool forwarded = false;
    net.b.set_forward_hook([&](stack::Iface&, const net::Ipv4Packet& pkt,
                               std::span<const std::uint8_t>) {
        if (pkt.h.dst == far) forwarded = true;
    });

    const auto bytes =
        udp_pkt(net::Ipv4Addr(10, 0, 0, 1), 40000, far, 7000).serialize();
    net.a.send_raw(net.ia, bytes, far); // off-subnet next hop, verbatim
    net.loop.run();

    EXPECT_TRUE(forwarded);
    // The resolution that happened was for the gateway — the off-subnet
    // address never entered the ARP cache.
    EXPECT_TRUE(net.ia.arp_cache().lookup(net::Ipv4Addr(10, 0, 0, 2)));
    EXPECT_FALSE(net.ia.arp_cache().lookup(far));
}

TEST(Netif, OffSubnetSendWithoutGatewayDropsSilently) {
    Net2 net;
    const net::Ipv4Addr far(192, 168, 7, 7);
    const auto bytes =
        udp_pkt(net::Ipv4Addr(10, 0, 0, 1), 40000, far, 7000).serialize();
    net.a.send_raw(net.ia, bytes, far);
    net.loop.run();
    // No router on the segment: the datagram is unroutable, and no ARP
    // chatter is emitted for an address no one can answer for.
    EXPECT_EQ(net.link.frames_sent(sim::Link::Side::A), 0u);
}

// --- CgnEngine: deterministic blocks --------------------------------------

TEST(CgnEngine, DeterministicBlocksComputableOffline) {
    EngineBed bed; // defaults: pool 1024..65534, block_size 2048
    EXPECT_EQ(bed.engine.num_blocks(), 31);

    const net::Ipv4Addr sub(100, 64, 0, 5);
    const auto info = bed.engine.block_of(sub);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->index, 5); // host-id 5 mod 31
    EXPECT_EQ(info->begin, 1024 + 5 * 2048);
    EXPECT_EQ(info->end, 1024 + 6 * 2048 - 1);

    // The translation draws from exactly the block the offline formula
    // names — the RFC 7422 "no per-flow logging" property.
    const auto out = outbound(bed.engine, udp_pkt(sub, 40000, kRemote, 7000));
    ASSERT_TRUE(out.has_value());
    const auto port = udp_src_port(*out);
    EXPECT_GE(port, info->begin);
    EXPECT_LE(port, info->end);
    EXPECT_EQ(bed.engine.live_bindings(sub), 1u);
}

TEST(CgnEngine, BlockCollisionRefusesSecondSubscriber) {
    EngineBed bed;
    // Host ids 5 and 36 are congruent mod 31: same deterministic block.
    const net::Ipv4Addr first(100, 64, 0, 5);
    const net::Ipv4Addr second(100, 64, 0, 36);
    ASSERT_TRUE(
        outbound(bed.engine, udp_pkt(first, 40000, kRemote, 7000)).has_value());
    EXPECT_FALSE(outbound(bed.engine, udp_pkt(second, 41000, kRemote, 7000))
                     .has_value());
    EXPECT_EQ(bed.engine.stats().block_collisions, 1u);
    // The owner is unaffected — no port leakage across the collision.
    EXPECT_TRUE(
        outbound(bed.engine, udp_pkt(first, 40001, kRemote, 7000)).has_value());
    EXPECT_EQ(bed.engine.live_bindings(second), 0u);
}

TEST(CgnEngine, SharedPoolExhaustionHitsTheVictim) {
    CgnConfig cfg;
    cfg.block_size = 0; // one shared pool
    cfg.pool_begin = 50000;
    cfg.pool_end = 50003; // 4 ports total
    EngineBed bed(cfg);

    // A churning subscriber takes the whole pool...
    const net::Ipv4Addr churner(100, 64, 0, 10);
    for (std::uint16_t i = 0; i < 4; ++i)
        ASSERT_TRUE(
            outbound(bed.engine, udp_pkt(churner, 40000 + i, kRemote, 7000))
                .has_value());
    // ...and an unrelated subscriber's first flow is refused: the ReDAN
    // victim scenario deterministic blocks exist to prevent.
    const net::Ipv4Addr victim(100, 64, 0, 20);
    EXPECT_FALSE(outbound(bed.engine, udp_pkt(victim, 40000, kRemote, 7000))
                     .has_value());
    EXPECT_GE(bed.engine.stats().pool_exhausted, 1u);
}

TEST(CgnEngine, EimSharesOnePortAcrossRemotes) {
    EngineBed bed; // eim = true
    const net::Ipv4Addr sub(100, 64, 0, 5);
    const auto a = outbound(bed.engine, udp_pkt(sub, 40000, kRemote, 7000));
    const auto b = outbound(
        bed.engine, udp_pkt(sub, 40000, net::Ipv4Addr(10, 0, 8, 8), 9));
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    // Endpoint-independent: both flows ride one external port (what makes
    // hole punching through the CGN layer possible)...
    EXPECT_EQ(udp_src_port(*a), udp_src_port(*b));
    // ...while a different internal port draws a fresh one.
    const auto c = outbound(bed.engine, udp_pkt(sub, 40001, kRemote, 7000));
    ASSERT_TRUE(c.has_value());
    EXPECT_NE(udp_src_port(*a), udp_src_port(*c));
}

TEST(CgnEngine, EdmDrawsFreshPortPerFlow) {
    CgnConfig cfg;
    cfg.eim = false;
    EngineBed bed(cfg);
    const net::Ipv4Addr sub(100, 64, 0, 5);
    const auto a = outbound(bed.engine, udp_pkt(sub, 40000, kRemote, 7000));
    const auto b = outbound(
        bed.engine, udp_pkt(sub, 40000, net::Ipv4Addr(10, 0, 8, 8), 9));
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_NE(udp_src_port(*a), udp_src_port(*b)); // symmetric mapping
}

TEST(CgnEngine, HairpinConnectsTwoSubscribers) {
    EngineBed bed;
    const net::Ipv4Addr alice(100, 64, 0, 5);
    const net::Ipv4Addr bob(100, 64, 0, 6);
    const auto out = outbound(bed.engine, udp_pkt(alice, 40000, kRemote, 7000));
    ASSERT_TRUE(out.has_value());
    const auto alice_ext = udp_src_port(*out);

    const auto pinned =
        hairpin(bed.engine, udp_pkt(bob, 41000, kExternal, alice_ext));
    ASSERT_TRUE(pinned.has_value());
    const auto pkt = net::Ipv4Packet::parse(*pinned);
    // Bob's packet arrives at Alice from the external address (RFC 4787
    // REQ-9 "external source" presentation), on her internal endpoint.
    EXPECT_EQ(pkt.h.src, kExternal);
    EXPECT_EQ(pkt.h.dst, alice);
    const auto d = net::UdpDatagram::parse(pkt.payload, pkt.h.src, pkt.h.dst);
    EXPECT_EQ(d.dst_port, 40000);
    // Bob's side got a real mapping in his own block.
    const auto bob_block = bed.engine.block_of(bob);
    EXPECT_GE(d.src_port, bob_block->begin);
    EXPECT_LE(d.src_port, bob_block->end);
    EXPECT_EQ(bed.engine.stats().hairpinned, 1u);
}

TEST(CgnEngine, HairpinDisabledByConfig) {
    CgnConfig cfg;
    cfg.hairpin = false;
    EngineBed bed(cfg);
    const net::Ipv4Addr alice(100, 64, 0, 5);
    const auto out = outbound(bed.engine, udp_pkt(alice, 40000, kRemote, 7000));
    ASSERT_TRUE(out.has_value());
    EXPECT_FALSE(hairpin(bed.engine, udp_pkt(net::Ipv4Addr(100, 64, 0, 6),
                                             41000, kExternal,
                                             udp_src_port(*out)))
                     .has_value());
}

TEST(CgnEngine, UnsolicitedInboundIsNotHandled) {
    EngineBed bed;
    // A pool port whose block was never activated: nothing to deliver to.
    bool handled = true;
    EXPECT_FALSE(
        inbound(bed.engine, udp_pkt(kRemote, 7000, kExternal, 30000), handled)
            .has_value());
    EXPECT_FALSE(handled); // falls through to the CGN's own stack

    // With a live binding, a packet from the WRONG remote endpoint is
    // still refused: the CGN filters endpoint-dependently (RFC 6888's
    // default posture) and counts the drop.
    const net::Ipv4Addr sub(100, 64, 0, 5);
    const auto out = outbound(bed.engine, udp_pkt(sub, 40000, kRemote, 7000));
    ASSERT_TRUE(out.has_value());
    handled = true;
    EXPECT_FALSE(inbound(bed.engine,
                         udp_pkt(net::Ipv4Addr(10, 0, 8, 8), 7000, kExternal,
                                 udp_src_port(*out)),
                         handled)
                     .has_value());
    EXPECT_FALSE(handled);
    EXPECT_EQ(bed.engine.stats().dropped_no_binding, 1u);
}

// --- Golden corpus: exact bytes out of the CGN's UDP/TCP translator -------

namespace {

std::string wire(const std::optional<net::Bytes>& b) {
    return b ? net::hexdump(*b) : std::string("<dropped>");
}

net::Ipv4Packet tcp_pkt(net::Ipv4Addr src, std::uint16_t sport,
                        net::Ipv4Addr dst, std::uint16_t dport,
                        net::TcpFlags flags) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kTcp;
    pkt.h.src = src;
    pkt.h.dst = dst;
    net::TcpSegment s;
    s.src_port = sport;
    s.dst_port = dport;
    s.seq = 5000;
    s.ack = flags.ack ? 9000 : 0;
    s.flags = flags;
    s.window = 16384;
    s.payload = {'c'};
    pkt.payload = s.serialize(src, dst);
    return pkt;
}

} // namespace

TEST(CgnGolden, UdpBothDirections) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    auto out = udp_pkt(sub, 40000, kRemote, 7000, {'u', 'p'});
    out.h.id = 0x0102;
    EXPECT_EQ(wire(outbound(bed.engine, out)),
              "45 00 00 1e 01 02 00 00 3f 11 3d 8a c6 33 64 07 0a 00 09 09 2c "
              "00 1b 58 00 0a 05 ce 75 70");
    bool handled = false;
    EXPECT_EQ(wire(inbound(
                  bed.engine,
                  udp_pkt(kRemote, 7000, kExternal, 11264, {'d', 'n'}),
                  handled)),
              "45 00 00 1e 00 00 00 00 3f 11 04 82 0a 00 09 09 64 40 00 05 1b "
              "58 9c 40 00 0a 6c 85 64 6e");
    EXPECT_TRUE(handled);
    EXPECT_EQ(bed.engine.stats().translated_out, 1u);
    EXPECT_EQ(bed.engine.stats().translated_in, 1u);
    EXPECT_EQ(bed.engine.live_bindings(sub), 1u);
    // Confirmed by the inbound packet: the 120 s refresh holds it past
    // the initial timeout, not beyond.
    bed.loop.run_for(std::chrono::seconds(119));
    EXPECT_EQ(bed.engine.live_bindings(sub), 1u);
    bed.loop.run_for(std::chrono::seconds(2));
    EXPECT_EQ(bed.engine.live_bindings(sub), 0u);
}

TEST(CgnGolden, TcpHandshakeFinLingerAndRst) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    bool handled = false;
    EXPECT_EQ(wire(outbound(
                  bed.engine,
                  tcp_pkt(sub, 41000, kRemote, 80, {.syn = true}))),
              "45 00 00 29 00 00 00 00 3f 06 3e 8c c6 33 64 07 0a 00 09 09 2c "
              "00 00 50 00 00 13 88 00 00 00 00 50 02 40 00 8f c5 00 00 63");
    EXPECT_EQ(wire(inbound(
                  bed.engine,
                  tcp_pkt(kRemote, 80, kExternal, 11264,
                          {.syn = true, .ack = true}),
                  handled)),
              "45 00 00 29 00 00 00 00 3f 06 04 82 0a 00 09 09 64 40 00 05 00 "
              "50 a0 28 00 00 13 88 00 00 23 28 50 12 40 00 be 5a 00 00 63");
    EXPECT_EQ(wire(outbound(
                  bed.engine,
                  tcp_pkt(sub, 41000, kRemote, 80, {.ack = true}))),
              "45 00 00 29 00 00 00 00 3f 06 3e 8c c6 33 64 07 0a 00 09 09 2c "
              "00 00 50 00 00 13 88 00 00 23 28 50 10 40 00 6c 8f 00 00 63");
    EXPECT_EQ(wire(outbound(bed.engine, tcp_pkt(sub, 41000, kRemote, 80,
                                               {.ack = true, .fin = true}))),
              "45 00 00 29 00 00 00 00 3f 06 3e 8c c6 33 64 07 0a 00 09 09 2c "
              "00 00 50 00 00 13 88 00 00 23 28 50 11 40 00 6c 8e 00 00 63");
    EXPECT_EQ(wire(inbound(
                  bed.engine,
                  tcp_pkt(kRemote, 80, kExternal, 11264,
                          {.ack = true, .fin = true}),
                  handled)),
              "45 00 00 29 00 00 00 00 3f 06 04 82 0a 00 09 09 64 40 00 05 00 "
              "50 a0 28 00 00 13 88 00 00 23 28 50 11 40 00 be 5b 00 00 63");
    // Both FINs seen: the binding lingers for tcp_fin_linger (10 s).
    EXPECT_EQ(bed.engine.live_bindings(sub), 1u);
    bed.loop.run_for(std::chrono::seconds(9));
    EXPECT_EQ(bed.engine.live_bindings(sub), 1u);
    bed.loop.run_for(std::chrono::seconds(2));
    EXPECT_EQ(bed.engine.live_bindings(sub), 0u);

    // RST in either direction removes the binding at once.
    EXPECT_EQ(wire(outbound(
                  bed.engine,
                  tcp_pkt(sub, 41001, kRemote, 80, {.syn = true}))),
              "45 00 00 29 00 00 00 00 3f 06 3e 8c c6 33 64 07 0a 00 09 09 2c "
              "01 00 50 00 00 13 88 00 00 00 00 50 02 40 00 8f c4 00 00 63");
    EXPECT_EQ(wire(inbound(
                  bed.engine,
                  tcp_pkt(kRemote, 80, kExternal, 11265, {.rst = true}),
                  handled)),
              "45 00 00 29 00 00 00 00 3f 06 04 82 0a 00 09 09 64 40 00 05 00 "
              "50 a0 29 00 00 13 88 00 00 00 00 50 04 40 00 e1 8f 00 00 63");
    EXPECT_EQ(bed.engine.live_bindings(sub), 0u);
    EXPECT_EQ(wire(outbound(
                  bed.engine,
                  tcp_pkt(sub, 41002, kRemote, 80, {.syn = true}))),
              "45 00 00 29 00 00 00 00 3f 06 3e 8c c6 33 64 07 0a 00 09 09 2c "
              "02 00 50 00 00 13 88 00 00 00 00 50 02 40 00 8f c3 00 00 63");
    EXPECT_EQ(wire(outbound(
                  bed.engine,
                  tcp_pkt(sub, 41002, kRemote, 80, {.rst = true}))),
              "45 00 00 29 00 00 00 00 3f 06 3e 8c c6 33 64 07 0a 00 09 09 2c "
              "02 00 50 00 00 13 88 00 00 00 00 50 04 40 00 8f c1 00 00 63");
    EXPECT_EQ(bed.engine.live_bindings(sub), 0u);
    EXPECT_EQ(bed.engine.stats().translated_out, 6u);
    EXPECT_EQ(bed.engine.stats().translated_in, 3u);
}

TEST(CgnGolden, HairpinBytes) {
    EngineBed bed;
    const net::Ipv4Addr alice(100, 64, 0, 5);
    const net::Ipv4Addr bob(100, 64, 0, 6);
    ASSERT_TRUE(
        outbound(bed.engine, udp_pkt(alice, 40000, kRemote, 7000)).has_value());
    auto probe = udp_pkt(bob, 41000, kExternal, 11264, {'h', 'p'});
    probe.h.id = 9;
    EXPECT_EQ(wire(hairpin(bed.engine, probe)),
              "45 00 00 1e 00 09 00 00 3f 11 ed 46 c6 33 64 07 64 40 00 05 34 "
              "00 9c 40 00 0a 38 a9 68 70");
    EXPECT_EQ(bed.engine.live_bindings(bob), 1u);
    EXPECT_EQ(bed.engine.stats().hairpinned, 1u);
}

// Regression: the CGN parsed a fragment's payload as a UDP/TCP header
// just like the home NAT did, so a mid-stream fragment could claim a
// port in (or activate) a subscriber's block. Fragments are dropped by
// policy before any slice is touched.
TEST(CgnEngine, FragmentsAreDroppedBeforeAnyBlockIsTouched) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    auto frag = udp_pkt(sub, 40000, kRemote, 7000, {'m', 'i', 'd'});
    frag.h.frag_offset = 32;
    EXPECT_FALSE(outbound(bed.engine, frag).has_value());
    EXPECT_EQ(bed.engine.live_bindings(sub), 0u);

    auto first = udp_pkt(sub, 40000, kRemote, 7000, {'a', 'b', 'c'});
    first.h.more_fragments = true;
    EXPECT_FALSE(outbound(bed.engine, first).has_value());
    EXPECT_EQ(bed.engine.live_bindings(sub), 0u);

    ASSERT_TRUE(
        outbound(bed.engine, udp_pkt(sub, 40000, kRemote, 7000)).has_value());
    auto in = udp_pkt(kRemote, 7000, kExternal, 11264);
    in.h.more_fragments = true;
    bool handled = false;
    EXPECT_FALSE(inbound(bed.engine, in, handled).has_value());
    EXPECT_TRUE(handled);
    EXPECT_EQ(bed.engine.stats().translated_in, 0u);
    EXPECT_EQ(bed.engine.stats().dropped_policy, 3u);
}

// Regression: the quote lookup for a subscriber's outbound ICMP error
// went through the block-allocating subscriber lookup, so an error that
// quoted an idle address claimed that address's RFC 7422 block and
// locked out the block's rightful subscriber.
TEST(CgnEngine, OutboundErrorQuoteClaimsNoPortBlock) {
    EngineBed bed;
    const net::Ipv4Addr sender(100, 64, 0, 100);    // block 7
    const net::Ipv4Addr idle(100, 64, 0, 132);      // block 8
    const net::Ipv4Addr neighbour(100, 64, 0, 101); // block 8
    net::Ipv4Packet err;
    err.h.protocol = net::proto::kIcmp;
    err.h.src = sender;
    err.h.dst = kRemote;
    err.payload =
        net::IcmpMessage::make_error(
            net::IcmpType::DestUnreachable, net::icmp_code::kPortUnreachable,
            0, udp_pkt(kRemote, 7000, idle, 40000, {}).serialize())
            .serialize();
    EXPECT_TRUE(outbound(bed.engine, err).has_value());
    EXPECT_TRUE(outbound(bed.engine, udp_pkt(neighbour, 41000, kRemote, 7000))
                    .has_value());
    EXPECT_EQ(bed.engine.stats().block_collisions, 0u);
    EXPECT_EQ(bed.engine.live_bindings(neighbour), 1u);
}

// --- Satellite: embedded-quote rewriting (the double-NAT ICMP fix) --------

// Regression: an inbound ICMP error's quote must be rewritten to the
// subscriber's view with VALID checksums. A stale quote IP checksum (or
// a UDP checksum rewritten to raw 0x0000, which means "disabled")
// survives a single NAT layer, but the next layer of a NAT444 cascade
// either re-translates garbage or refuses to attribute the error.
TEST(CgnEngine, InboundErrorQuoteRewrittenWithValidChecksums) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    // Empty payload: the whole datagram fits the RFC 792 8-byte quote,
    // so the UDP checksum is verifiable end-to-end after rewriting.
    const auto out =
        outbound(bed.engine, udp_pkt(sub, 40000, kRemote, 7000, {}));
    ASSERT_TRUE(out.has_value());

    net::Ipv4Packet err;
    err.h.protocol = net::proto::kIcmp;
    err.h.src = kRemote;
    err.h.dst = kExternal;
    err.h.ttl = 60;
    err.payload = net::IcmpMessage::make_error(
                      net::IcmpType::DestUnreachable,
                      net::icmp_code::kPortUnreachable, 0, *out)
                      .serialize();

    bool handled = false;
    const auto relayed = inbound(bed.engine, err, handled);
    ASSERT_TRUE(handled);
    ASSERT_TRUE(relayed.has_value());

    const auto outer = net::Ipv4Packet::parse(*relayed);
    EXPECT_EQ(outer.h.dst, sub);
    const auto msg = net::IcmpMessage::parse(outer.payload);
    const auto quote = net::Ipv4Packet::parse_prefix(msg.payload);
    EXPECT_EQ(quote.h.src, sub); // internal view restored
    ASSERT_GE(quote.payload.size(), 8u);
    const auto d = net::UdpDatagram::parse(quote.payload, quote.h.src,
                                           quote.h.dst);
    EXPECT_EQ(d.src_port, 40000);
    EXPECT_TRUE(ip_header_checksum_ok(msg.payload));
    EXPECT_TRUE(d.checksum_ok);
}

// --- NAT444 end-to-end ----------------------------------------------------

namespace {

DeviceProfile member_profile(const char* tag) {
    DeviceProfile p;
    p.tag = tag;
    p.icmp_tcp = IcmpTranslationSet::all();
    p.icmp_udp = IcmpTranslationSet::all();
    p.hairpin = true;
    return p;
}

} // namespace

TEST(Nat444, BringUpAndEchoThroughBothLayers) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int g = tb.add_cgn_group();
    const int ia = tb.add_device_behind_cgn(member_profile("m1"), g);
    const int ib = tb.add_device_behind_cgn(member_profile("m2"), g);
    tb.start_and_wait();

    auto& group = tb.cgn_group(g);
    EXPECT_TRUE(group.cgn->ready());
    // Members leased their WAN addresses from the carrier access pool.
    EXPECT_TRUE(tb.slot(ia).gw_wan_addr.same_subnet(group.cgn->access_addr(),
                                                    24));
    EXPECT_TRUE(tb.slot(ib).gw_wan_addr.same_subnet(group.cgn->access_addr(),
                                                    24));
    EXPECT_NE(tb.slot(ia).gw_wan_addr, tb.slot(ib).gw_wan_addr);

    // Echo across the full chain; the server must see the CGN's single
    // external address, not the member's access-side lease.
    net::Ipv4Addr seen_by_server;
    auto& echo = tb.server().udp_open(net::Ipv4Addr::any(), 7000);
    echo.set_receive_handler([&](net::Endpoint src,
                                 std::span<const std::uint8_t> p,
                                 const net::Ipv4Packet&) {
        seen_by_server = src.addr;
        echo.send_to(src, net::Bytes(p.begin(), p.end()));
    });

    int echoed = 0;
    auto& sock_a = tb.client().udp_open(tb.slot(ia).client_addr, 46000,
                                        tb.slot(ia).client_if);
    auto& sock_b = tb.client().udp_open(tb.slot(ib).client_addr, 46000,
                                        tb.slot(ib).client_if);
    sock_a.set_receive_handler([&](net::Endpoint, std::span<const std::uint8_t>,
                                   const net::Ipv4Packet&) { ++echoed; });
    sock_b.set_receive_handler([&](net::Endpoint, std::span<const std::uint8_t>,
                                   const net::Ipv4Packet&) { ++echoed; });
    sock_a.send_to({tb.slot(ia).server_addr, 7000}, {'a'});
    loop.run_for(std::chrono::milliseconds(50));
    sock_b.send_to({tb.slot(ib).server_addr, 7000}, {'b'});
    loop.run_for(std::chrono::milliseconds(50));

    EXPECT_EQ(echoed, 2);
    EXPECT_EQ(seen_by_server, group.external_addr);
}

// Regression: a TTL expiring at the SECOND hop used to vanish — the CGN
// forwarded without decrementing and no hop ever answered — so
// traceroute through a NAT444 chain showed one router where two exist.
TEST(Nat444, TracerouteSeesBothNatHops) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int g = tb.add_cgn_group();
    const int i = tb.add_device_behind_cgn(member_profile("m1"), g);
    tb.start_and_wait();

    auto& sock = tb.client().udp_open(tb.slot(i).client_addr, 46000,
                                      tb.slot(i).client_if);
    std::vector<std::pair<net::Ipv4Addr, net::IcmpType>> hops;
    sock.set_icmp_handler(
        [&](const net::IcmpMessage& msg, const net::Ipv4Packet& outer) {
            hops.emplace_back(outer.h.src, msg.type);
        });

    stack::UdpSocket::SendOptions opts;
    for (std::uint8_t ttl = 1; ttl <= 2; ++ttl) {
        opts.ttl = ttl;
        sock.send_to({tb.slot(i).server_addr, 33434}, {0xbe}, opts);
        loop.run_for(std::chrono::milliseconds(50));
    }

    ASSERT_EQ(hops.size(), 2u);
    // Hop 1: the home gateway, answering with its LAN address.
    EXPECT_EQ(hops[0].first, net::Ipv4Addr(192, 168, 2, 1));
    EXPECT_EQ(hops[0].second, net::IcmpType::TimeExceeded);
    // Hop 2: the CGN. Its Time Exceeded quotes the member gateway's
    // translated packet, so delivery to the client's socket proves the
    // home NAT attributed and re-translated the quote.
    EXPECT_EQ(hops[1].first, tb.cgn_group(g).cgn->access_addr());
    EXPECT_EQ(hops[1].second, net::IcmpType::TimeExceeded);
}

// Regression companion to the quote-rewriting unit test, across the real
// chain: a server-side port unreachable traverses CGN then home NAT, and
// the quote the client sees must carry its own endpoint with checksums
// that verify (both NAT layers rewrote incrementally).
TEST(Nat444, PortUnreachableQuoteSurvivesDoubleTranslation) {
    sim::EventLoop loop;
    Testbed tb(loop);
    const int g = tb.add_cgn_group();
    const int i = tb.add_device_behind_cgn(member_profile("m1"), g);
    tb.start_and_wait();

    auto& sock = tb.client().udp_open(tb.slot(i).client_addr, 46000,
                                      tb.slot(i).client_if);
    std::optional<net::IcmpMessage> got;
    sock.set_icmp_handler(
        [&](const net::IcmpMessage& msg, const net::Ipv4Packet&) {
            got = msg;
        });
    // Empty payload so the UDP checksum is verifiable from the 8-byte
    // quote; port 9 has no listener on the test server.
    sock.send_to({tb.slot(i).server_addr, 9}, {});
    loop.run_for(std::chrono::milliseconds(100));

    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, net::IcmpType::DestUnreachable);
    const auto quote = net::Ipv4Packet::parse_prefix(got->payload);
    EXPECT_EQ(quote.h.src, tb.slot(i).client_addr);
    EXPECT_EQ(quote.h.dst, tb.slot(i).server_addr);
    const auto d =
        net::UdpDatagram::parse(quote.payload, quote.h.src, quote.h.dst);
    EXPECT_EQ(d.src_port, 46000);
    EXPECT_TRUE(ip_header_checksum_ok(got->payload));
    EXPECT_TRUE(d.checksum_ok);
}

TEST(Nat444, HolePunchAcrossTwoCgns) {
    // EIM home NATs behind EIM CGNs: the reflexive endpoint each peer
    // registers is reusable by the other, through both layers.
    auto a = member_profile("p1");
    auto b = member_profile("p2");
    CgnConfig cgn; // defaults: eim + hairpin on
    const auto r = harness::run_hole_punch_nat444(a, b, cgn, false);
    EXPECT_TRUE(r.registered);
    EXPECT_TRUE(r.success);
    // Each peer's reflexive address is its CGN's external, and the two
    // CGNs are distinct boxes.
    EXPECT_NE(r.reflexive_a.addr, r.reflexive_b.addr);
}

TEST(Nat444, HolePunchSameCgnRidesHairpin) {
    auto a = member_profile("p1");
    auto b = member_profile("p2");
    CgnConfig cgn;
    const auto r = harness::run_hole_punch_nat444(a, b, cgn, true);
    EXPECT_TRUE(r.registered);
    EXPECT_EQ(r.reflexive_a.addr, r.reflexive_b.addr); // shared external
    EXPECT_TRUE(r.success);

    // With hairpinning off the punch packets die at the shared external
    // address: same registration, no connectivity.
    cgn.hairpin = false;
    const auto r2 = harness::run_hole_punch_nat444(a, b, cgn, true);
    EXPECT_TRUE(r2.registered);
    EXPECT_FALSE(r2.success);
}

// --- CGN TTL expiry: the Time Exceeded quotes the packet as received ---

namespace {

/// One member gateway behind one CGN. Test traffic is sourced from the
/// member gateway's own host, so it reaches the CGN exactly as built
/// here, and an ICMP error about it lands in that host's stack.
struct CgnTtlBed {
    sim::EventLoop loop;
    Testbed tb{loop};
    int g = tb.add_cgn_group();
    int i = tb.add_device_behind_cgn(member_profile("m1"), g);

    CgnTtlBed() { tb.start_and_wait(); }
    HomeGateway& gw() { return *tb.slot(i).gw; }
    CgnGateway& cgn() { return *tb.cgn_group(g).cgn; }
    net::Ipv4Addr member() { return tb.slot(i).gw_wan_addr; }
    net::Ipv4Addr server() { return tb.slot(i).server_addr; }
    void send_up(const net::Bytes& datagram) {
        gw().host().send_raw(gw().wan_if(), datagram, cgn().access_addr());
    }
};

/// What an RFC 792 error quotes of a datagram without IP options: the
/// 20-byte header and the first 8 payload bytes.
net::Bytes quote_of(const net::Bytes& datagram) {
    return net::Bytes(datagram.begin(), datagram.begin() + 28);
}

} // namespace

TEST(Nat444, CgnOutboundTtlOneDrawsTimeExceeded) {
    CgnTtlBed bed;
    std::optional<net::IcmpMessage> err;
    net::Ipv4Addr err_src;
    bed.gw().host().set_icmp_observer(
        [&](const net::Ipv4Packet& outer, const net::IcmpMessage& m) {
            err = m;
            err_src = outer.h.src;
        });
    const auto before = bed.cgn().engine().stats();
    auto pkt = udp_pkt(bed.member(), 50000, bed.server(), 33434);
    pkt.h.ttl = 1;
    const net::Bytes sent = pkt.serialize();
    bed.send_up(sent);
    bed.loop.run_for(std::chrono::milliseconds(50));

    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->type, net::IcmpType::TimeExceeded);
    EXPECT_EQ(err_src, bed.cgn().access_addr());
    EXPECT_EQ(err->payload, quote_of(sent));
    EXPECT_EQ(bed.cgn().engine().stats().translated_out, before.translated_out);
    EXPECT_EQ(bed.cgn().engine().live_bindings(bed.member()), 0u);
}

TEST(Nat444, CgnHairpinTtlOneDrawsTimeExceeded) {
    CgnTtlBed bed;
    std::optional<net::IcmpMessage> err;
    net::Ipv4Addr err_src;
    bed.gw().host().set_icmp_observer(
        [&](const net::Ipv4Packet& outer, const net::IcmpMessage& m) {
            err = m;
            err_src = outer.h.src;
        });
    const auto before = bed.cgn().engine().stats();
    auto pkt = udp_pkt(bed.member(), 50000, bed.cgn().external_addr(), 40000);
    pkt.h.ttl = 1;
    const net::Bytes sent = pkt.serialize();
    bed.send_up(sent);
    bed.loop.run_for(std::chrono::milliseconds(50));

    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->type, net::IcmpType::TimeExceeded);
    EXPECT_EQ(err_src, bed.cgn().access_addr());
    EXPECT_EQ(err->payload, quote_of(sent));
    EXPECT_EQ(bed.cgn().engine().stats().hairpinned, before.hairpinned);
}

// An inbound packet on a live binding whose TTL expires at the CGN is
// still the binding's traffic: the sender gets a Time Exceeded quoting
// it untranslated, and the binding is refreshed as for any inbound
// packet, so it outlives its initial lifetime.
TEST(Nat444, CgnInboundTtlOneDrawsTimeExceededAndRefreshes) {
    CgnTtlBed bed;
    auto& server = bed.tb.server();
    net::Endpoint ext; // the member's flow as the server sees it
    auto& server_sock = server.udp_open(net::Ipv4Addr::any(), 7000);
    server_sock.set_receive_handler(
        [&](net::Endpoint src, std::span<const std::uint8_t>,
            const net::Ipv4Packet&) { ext = src; });
    std::optional<net::IcmpMessage> err;
    net::Ipv4Addr err_src;
    server.set_icmp_observer(
        [&](const net::Ipv4Packet& outer, const net::IcmpMessage& m) {
            err = m;
            err_src = outer.h.src;
        });
    int member_got = 0;
    auto& member_sock = bed.gw().host().udp_open(bed.member(), 50000);
    member_sock.set_receive_handler(
        [&](net::Endpoint, std::span<const std::uint8_t>,
            const net::Ipv4Packet&) { ++member_got; });
    member_sock.send_to({bed.server(), 7000}, {1});
    bed.loop.run_for(std::chrono::milliseconds(50));
    ASSERT_EQ(ext.addr, bed.cgn().external_addr());

    // 100 s into the binding's 120 s initial lifetime.
    bed.loop.run_for(std::chrono::seconds(100));
    auto in = udp_pkt(bed.server(), 7000, ext.addr, ext.port);
    in.h.ttl = 1;
    const net::Bytes sent = in.serialize();
    auto& server_if = *bed.tb.cgn_group(bed.g).server_if;
    server.send_raw(server_if, sent, ext.addr);
    bed.loop.run_for(std::chrono::milliseconds(50));
    EXPECT_EQ(member_got, 0);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->type, net::IcmpType::TimeExceeded);
    EXPECT_EQ(err_src, ext.addr);
    EXPECT_EQ(err->payload, quote_of(sent));

    // 150 s in: past the initial lifetime, inside the refreshed one.
    bed.loop.run_for(std::chrono::seconds(50));
    in.h.ttl = 64;
    server.send_raw(server_if, in.serialize(), ext.addr);
    bed.loop.run_for(std::chrono::milliseconds(50));
    EXPECT_EQ(member_got, 1);
}

// --- Golden corpus: exact bytes out of the CGN's ICMP and IP-only paths ---

namespace {

net::Ipv4Packet icmp_pkt(net::Ipv4Addr src, net::Ipv4Addr dst,
                         const net::IcmpMessage& m, std::uint16_t id = 0) {
    net::Ipv4Packet pkt;
    pkt.h.protocol = net::proto::kIcmp;
    pkt.h.src = src;
    pkt.h.dst = dst;
    pkt.h.id = id;
    pkt.payload = m.serialize();
    return pkt;
}

/// The remote's ICMP error about a datagram the CGN sent it.
net::Ipv4Packet error_to_external(const net::Bytes& quoted,
                                  net::IcmpType type, std::uint8_t code) {
    return icmp_pkt(kRemote, kExternal,
                    net::IcmpMessage::make_error(type, code, 0, quoted),
                    0x0e0e);
}

} // namespace

TEST(CgnGolden, EchoOutAndReplyIn) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    EXPECT_EQ(wire(outbound(bed.engine, icmp_pkt(
                  sub, kRemote,
                  net::IcmpMessage::make_echo(false, 0x0077, 1, {'p', 'g'}),
                  0x0101))),
              "45 00 00 1e 01 01 00 00 3f 01 3d 9b c6 33 64 07 0a 00 09 09 08 "
              "00 87 20 00 77 00 01 70 67");
    bool handled = false;
    EXPECT_EQ(wire(inbound(
                  bed.engine,
                  icmp_pkt(kRemote, kExternal,
                           net::IcmpMessage::make_echo(true, 0x0077, 1,
                                                       {'p', 'g'}),
                           0x0202),
                  handled)),
              "45 00 00 1e 02 02 00 00 3f 01 02 90 0a 00 09 09 64 40 00 05 00 "
              "00 8f 20 00 77 00 01 70 67");
    EXPECT_TRUE(handled);
    EXPECT_EQ(bed.engine.stats().translated_out, 1u);
    EXPECT_EQ(bed.engine.stats().translated_in, 1u);
}

TEST(CgnGolden, InboundErrorsRewriteTheQuote) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    bool handled = false;
    const auto udp_out =
        outbound(bed.engine, udp_pkt(sub, 40000, kRemote, 7000, {}));
    ASSERT_TRUE(udp_out.has_value());
    EXPECT_EQ(wire(inbound(
                  bed.engine,
                  error_to_external(*udp_out, net::IcmpType::DestUnreachable,
                                    net::icmp_code::kPortUnreachable),
                  handled)),
              "45 00 00 38 0e 0e 00 00 3f 01 f6 69 0a 00 09 09 64 40 00 05 03 "
              "03 74 64 00 00 00 00 45 00 00 1c 00 00 00 00 3f 11 04 84 64 40 "
              "00 05 0a 00 09 09 9c 40 1b 58 00 08 d0 f7");
    EXPECT_TRUE(handled);
    const auto tcp_out = outbound(
        bed.engine,
        tcp_pkt(sub, 41000, kRemote, 80, {.syn = true}));
    ASSERT_TRUE(tcp_out.has_value());
    EXPECT_EQ(wire(inbound(
                  bed.engine,
                  error_to_external(*tcp_out, net::IcmpType::TimeExceeded,
                                    net::icmp_code::kTtlExceeded),
                  handled)),
              "45 00 00 38 0e 0e 00 00 3f 01 f6 69 0a 00 09 09 64 40 00 05 0b "
              "00 40 ff 00 00 00 00 45 00 00 29 00 00 00 00 3f 06 04 82 64 40 "
              "00 05 0a 00 09 09 a0 28 00 50 00 00 13 88");
    const auto echo_out = outbound(
        bed.engine,
        icmp_pkt(sub, kRemote, net::IcmpMessage::make_echo(false, 0x0066, 2)));
    ASSERT_TRUE(echo_out.has_value());
    EXPECT_EQ(wire(inbound(
                  bed.engine,
                  error_to_external(*echo_out,
                                    net::IcmpType::DestUnreachable,
                                    net::icmp_code::kHostUnreachable),
                  handled)),
              "45 00 00 38 0e 0e 00 00 3f 01 f6 69 0a 00 09 09 64 40 00 05 03 "
              "01 fc fe 00 00 00 00 45 00 00 1c 00 00 00 00 3f 01 04 94 64 40 "
              "00 05 0a 00 09 09 08 00 f7 97 00 66 00 02");
    EXPECT_EQ(bed.engine.stats().icmp_relayed, 3u);
}

// A subscriber's own error quotes the inbound packet as the subscriber
// saw it; the CGN rewrites the quote's destination to the external view.
TEST(CgnGolden, OutboundSubscriberErrorQuoteRewritten) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    ASSERT_TRUE(
        outbound(bed.engine, udp_pkt(sub, 40000, kRemote, 7000)).has_value());
    bool handled = false;
    const auto in = inbound(
        bed.engine,
        udp_pkt(kRemote, 7000, kExternal, 11264, {}), handled);
    ASSERT_TRUE(in.has_value());
    EXPECT_EQ(wire(outbound(bed.engine, icmp_pkt(
                  sub, kRemote,
                  net::IcmpMessage::make_error(
                      net::IcmpType::DestUnreachable,
                      net::icmp_code::kPortUnreachable, 0, *in),
                  0x0303))),
              "45 00 00 38 03 03 00 00 3f 01 3b 7f c6 33 64 07 0a 00 09 09 03 "
              "03 3a 5a 00 00 00 00 45 00 00 1c 00 00 00 00 3f 11 3e 8e 0a 00 "
              "09 09 c6 33 64 07 1b 58 2c 00 00 08 7b 42");
    // Quoting an echo reply: only the address needs the external view.
    const auto reply = icmp_pkt(kRemote, sub,
                                net::IcmpMessage::make_echo(true, 0x55, 1));
    EXPECT_EQ(wire(outbound(bed.engine, icmp_pkt(
                  sub, kRemote,
                  net::IcmpMessage::make_error(
                      net::IcmpType::DestUnreachable,
                      net::icmp_code::kHostUnreachable, 0,
                      reply.serialize())))),
              "45 00 00 38 00 00 00 00 3f 01 3e 82 c6 33 64 07 0a 00 09 09 03 "
              "01 fc fe 00 00 00 00 45 00 00 1c 00 00 00 00 40 01 3d 9e 0a 00 "
              "09 09 c6 33 64 07 00 00 ff a9 00 55 00 01");
    // No binding for the quoted flow: the quote crosses unchanged.
    EXPECT_EQ(wire(outbound(bed.engine, icmp_pkt(
                  sub, kRemote,
                  net::IcmpMessage::make_error(
                      net::IcmpType::DestUnreachable,
                      net::icmp_code::kPortUnreachable, 0,
                      udp_pkt(kRemote, 7001, sub, 40000, {}).serialize())))),
              "45 00 00 38 00 00 00 00 3f 01 3e 82 c6 33 64 07 0a 00 09 09 03 "
              "03 74 64 00 00 00 00 45 00 00 1c 00 00 00 00 40 11 03 84 0a 00 "
              "09 09 64 40 00 05 1b 59 9c 40 00 08 d0 f6");
    EXPECT_EQ(bed.engine.stats().icmp_relayed, 3u);
}

// An error whose code no translation set names is not the CGN's to
// relay, the same rule as the home NAT's: a spoofed error with a nonsense
// code must not ride a flow's binding into the access network.
TEST(CgnGolden, UnclassifiedErrorCode) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    const auto out =
        outbound(bed.engine, udp_pkt(sub, 40000, kRemote, 7000, {}));
    ASSERT_TRUE(out.has_value());
    bool handled = true;
    // Destination Unreachable code 13 (administratively prohibited).
    EXPECT_EQ(wire(inbound(
                  bed.engine,
                  error_to_external(*out, net::IcmpType::DestUnreachable, 13),
                  handled)),
              "<dropped>");
    EXPECT_FALSE(handled);
    EXPECT_EQ(bed.engine.stats().icmp_relayed, 0u);
}

// Regression: ICMP fragments reached the CGN's ICMP translator, so a
// subscriber's mid-stream fragment whose data read like an echo request
// created echo state that a remote's reply then rode into the access
// network. ICMP fragments are now dropped by policy in both directions.
TEST(CgnEngine, IcmpFragmentsAreDroppedNotTranslated) {
    EngineBed bed;
    const net::Ipv4Addr sub(100, 64, 0, 5);
    net::Ipv4Packet frag;
    frag.h.protocol = net::proto::kIcmp;
    frag.h.src = sub;
    frag.h.dst = kRemote;
    frag.h.frag_offset = 100; // mid-stream: the "header" is data
    frag.payload = {0x08, 0x00, 0x00, 0x00, 0x12, 0x34, 0x00, 0x01};
    EXPECT_FALSE(outbound(bed.engine, frag).has_value());
    bool handled = true;
    EXPECT_FALSE(inbound(bed.engine,
                         icmp_pkt(kRemote, kExternal,
                                  net::IcmpMessage::make_echo(true, 0x1234, 1)),
                         handled)
                     .has_value());
    EXPECT_FALSE(handled); // no query was recorded

    // Inbound, a first fragment of a reply to a live query is dropped.
    ASSERT_TRUE(
        outbound(bed.engine,
                 icmp_pkt(sub, kRemote,
                          net::IcmpMessage::make_echo(false, 0x0077, 1)))
            .has_value());
    auto reply = icmp_pkt(kRemote, kExternal,
                          net::IcmpMessage::make_echo(true, 0x0077, 1,
                                                      {'p', 'g'}));
    reply.h.more_fragments = true;
    EXPECT_FALSE(inbound(bed.engine, reply, handled).has_value());
    EXPECT_TRUE(handled);
    EXPECT_EQ(bed.engine.stats().translated_out, 1u);
    EXPECT_EQ(bed.engine.stats().translated_in, 0u);
    EXPECT_EQ(bed.engine.stats().dropped_policy, 2u);
}

TEST(CgnGolden, UnknownTransportIsDropped) {
    EngineBed bed;
    net::Ipv4Packet dccp;
    dccp.h.protocol = net::proto::kDccp;
    dccp.h.src = net::Ipv4Addr(100, 64, 0, 5);
    dccp.h.dst = kRemote;
    dccp.payload = {0x9c, 0x40, 0x1b, 0x58, 0x05, 0x00, 0xab, 0xcd};
    EXPECT_FALSE(outbound(bed.engine, dccp).has_value());
    EXPECT_EQ(bed.engine.stats().dropped_policy, 1u);
    dccp.h.src = kRemote;
    dccp.h.dst = kExternal;
    bool handled = true;
    EXPECT_FALSE(inbound(bed.engine, dccp, handled).has_value());
    EXPECT_FALSE(handled);
}
