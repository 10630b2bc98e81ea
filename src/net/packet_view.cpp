#include "net/packet_view.hpp"

#include <algorithm>

#include "net/checksum.hpp"
#include "util/assert.hpp"

namespace gatekit::net {

std::optional<PacketView> PacketView::parse(
    std::span<std::uint8_t> datagram) {
    if (datagram.size() < 20) return std::nullopt;
    std::uint8_t* d = datagram.data();
    if ((d[0] >> 4) != 4) return std::nullopt;
    const std::size_t ihl = static_cast<std::size_t>(d[0] & 0xf) * 4;
    if (ihl < 20 || ihl > datagram.size()) return std::nullopt;
    const std::uint16_t total =
        static_cast<std::uint16_t>((d[2] << 8) | d[3]);
    if (total < ihl || total > datagram.size()) return std::nullopt;

    PacketView v;
    v.data_ = d;
    v.total_ = total;
    v.ihl_ = static_cast<std::uint8_t>(ihl);
    v.proto_ = d[9];
    const std::uint16_t flags_frag =
        static_cast<std::uint16_t>((d[6] << 8) | d[7]);
    v.fragment_ = (flags_frag & 0x3fff) != 0; // frag offset or MF set
    v.src_ = Ipv4Addr{(std::uint32_t{d[12]} << 24) |
                      (std::uint32_t{d[13]} << 16) |
                      (std::uint32_t{d[14]} << 8) | d[15]};
    v.dst_ = Ipv4Addr{(std::uint32_t{d[16]} << 24) |
                      (std::uint32_t{d[17]} << 16) |
                      (std::uint32_t{d[18]} << 8) | d[19]};

    const std::size_t l4_len = total - ihl;
    if (!v.fragment_ && v.proto_ == proto::kUdp && l4_len >= 8) {
        // The UDP length may stop short of the IP payload (trim_to_l4
        // drops the rest) but never run past it.
        const std::uint16_t udp_len =
            static_cast<std::uint16_t>((d[ihl + 4] << 8) | d[ihl + 5]);
        if (udp_len >= 8 && udp_len <= l4_len) {
            v.has_l4_ = true;
            v.l4_end_ = static_cast<std::uint16_t>(ihl + udp_len);
            const std::uint16_t ck =
                static_cast<std::uint16_t>((d[ihl + 6] << 8) | d[ihl + 7]);
            if (ck != 0) v.l4_ck_off_ = static_cast<std::uint16_t>(ihl + 6);
        }
    } else if (!v.fragment_ && v.proto_ == proto::kTcp && l4_len >= 20) {
        const std::size_t doff =
            static_cast<std::size_t>(d[ihl + 12] >> 4) * 4;
        if (doff >= 20 && doff <= l4_len) {
            v.has_l4_ = true;
            v.l4_end_ = total;
            v.l4_ck_off_ = static_cast<std::uint16_t>(ihl + 16);
        }
    }
    if (v.has_l4_) {
        v.sport_ = static_cast<std::uint16_t>((d[ihl] << 8) | d[ihl + 1]);
        v.dport_ = static_cast<std::uint16_t>((d[ihl + 2] << 8) | d[ihl + 3]);
    }
    return v;
}

void PacketView::ip_fixup16(std::size_t off, std::uint16_t old_w,
                            std::uint16_t new_w) {
    write16(off, new_w);
    write16(10, checksum_update16(read16(10), old_w, new_w));
}

void PacketView::ip_fixup32(std::size_t off, std::uint32_t old_w,
                            std::uint32_t new_w) {
    write16(off, static_cast<std::uint16_t>(new_w >> 16));
    write16(off + 2, static_cast<std::uint16_t>(new_w));
    write16(10, checksum_update32(read16(10), old_w, new_w));
}

void PacketView::ip_set8(std::size_t off, std::uint8_t v) {
    const std::size_t w = off & ~std::size_t{1};
    const std::uint16_t old_w = read16(w);
    data_[off] = v;
    write16(10, checksum_update16(read16(10), old_w, read16(w)));
}

void PacketView::l4_fixup16(std::uint16_t old_w, std::uint16_t new_w) {
    if (l4_ck_off_ == 0) return;
    std::uint16_t ck = checksum_update16(read16(l4_ck_off_), old_w, new_w);
    // UDP transmits a computed zero as 0xffff (zero means "disabled");
    // the incremental form must land on the same representative.
    if (ck == 0 && proto_ == proto::kUdp) ck = 0xffff;
    write16(l4_ck_off_, ck);
}

void PacketView::l4_fixup32(std::uint32_t old_w, std::uint32_t new_w) {
    if (l4_ck_off_ == 0) return;
    std::uint16_t ck = checksum_update32(read16(l4_ck_off_), old_w, new_w);
    if (ck == 0 && proto_ == proto::kUdp) ck = 0xffff;
    write16(l4_ck_off_, ck);
}

void PacketView::set_src(Ipv4Addr a) {
    const std::uint32_t old_w = src_.value();
    ip_fixup32(12, old_w, a.value());
    l4_fixup32(old_w, a.value()); // pseudo-header coverage
    src_ = a;
}

void PacketView::set_dst(Ipv4Addr a) {
    const std::uint32_t old_w = dst_.value();
    ip_fixup32(16, old_w, a.value());
    l4_fixup32(old_w, a.value());
    dst_ = a;
}

void PacketView::set_src_port(std::uint16_t p) {
    write16(ihl_, p);
    l4_fixup16(sport_, p);
    sport_ = p;
}

void PacketView::set_dst_port(std::uint16_t p) {
    write16(ihl_ + 2u, p);
    l4_fixup16(dport_, p);
    dport_ = p;
}

void PacketView::decrement_ttl() {
    ip_set8(8, static_cast<std::uint8_t>(data_[8] - 1));
}

void PacketView::record_route(Ipv4Addr router) {
    const auto found = find_record_route({data_ + 20, ihl_ - 20u});
    if (!found) return;
    const std::size_t at = 20 + *found;
    const std::uint8_t len = data_[at + 1];
    const std::uint8_t ptr = data_[at + 2];
    if (ptr < 4 || ptr + 3 > len) return; // malformed or full
    const std::uint32_t v = router.value();
    for (std::size_t i = 0; i < 4; ++i)
        ip_set8(at + ptr - 1 + i,
                static_cast<std::uint8_t>(v >> (24 - 8 * i)));
    ip_set8(at + 2, static_cast<std::uint8_t>(ptr + 4));
}

void PacketView::trim_to_l4() {
    if (!has_l4_ || l4_end_ >= total_) return;
    ip_fixup16(2, total_, l4_end_);
    total_ = l4_end_;
}

void PacketView::refresh_icmp_checksum() {
    const auto icmp = payload();
    icmp[2] = 0;
    icmp[3] = 0;
    write16(ihl_ + 2u, internet_checksum(icmp));
}

void PacketView::replace(std::span<const std::uint8_t> datagram) {
    GK_EXPECTS(datagram.size() <= total_);
    std::copy(datagram.begin(), datagram.end(), data_);
    *this = parse({data_, datagram.size()}).value();
}

} // namespace gatekit::net
