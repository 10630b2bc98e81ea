// Self-test of the campaign benchmark: the traced run (wrapped NIC
// sinks, observability attached, the loop driven by timed step() calls)
// must measure exactly what the untraced shard-style run measures, and
// the untraced run must reproduce the recorded digests.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "campaign.hpp"

using namespace campaign_bench;

namespace {

constexpr std::uint64_t kDefaultSeed = 1;

std::map<std::string, std::string> recorded(Workload w) {
    std::map<std::string, std::string> out;
    std::ifstream in(CAMPAIGN_BENCH_DIGESTS);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::string workload, key, digest;
        fields >> workload >> key >> digest;
        if (workload == workload_name(w)) out[key] = digest;
    }
    return out;
}

class EveryWorkload : public ::testing::TestWithParam<Workload> {};

TEST_P(EveryWorkload, TracingLeavesDigestsAndEventsUnchanged) {
    const Workload w = GetParam();
    const auto want = recorded(w);
    ASSERT_FALSE(want.empty()) << "no recorded digests for "
                               << workload_name(w);
    LayerTrace trace;
    for (const auto& d : draw_roster(w, kDefaultSeed)) {
        const std::string key = device_key(w, d);
        const DeviceRun plain = run_device(w, d, nullptr);
        const DeviceRun traced = run_device(w, d, &trace);
        EXPECT_EQ(plain.units_not_ok, 0) << key;
        EXPECT_EQ(traced.digest, plain.digest) << key;
        EXPECT_EQ(traced.events, plain.events) << key;
        EXPECT_EQ(traced.frames, plain.frames) << key;
        ASSERT_TRUE(want.count(key)) << "no recorded digest for " << key;
        EXPECT_EQ(plain.digest, want.at(key)) << key;
    }
    // The wrappers saw traffic at the NICs they wrap.
    EXPECT_GT(trace.step.calls, 0u);
    EXPECT_GT(trace.client_rx.calls, 0u);
    EXPECT_GT(trace.server_rx.calls, 0u);
    EXPECT_GT(trace.gw_lan_rx.calls, 0u);
    EXPECT_EQ(trace.cgn_access_rx.calls > 0, w == Workload::Nat444Chain);
}

INSTANTIATE_TEST_SUITE_P(CampaignBench, EveryWorkload,
                         ::testing::Values(Workload::TcpBulk,
                                           Workload::PopTimeouts,
                                           Workload::Nat444Chain),
                         [](const auto& info) {
                             return std::string(workload_name(info.param));
                         });

TEST(CampaignBench, RosterIsAFunctionOfTheSeed) {
    for (Workload w : {Workload::TcpBulk, Workload::Nat444Chain}) {
        const auto a = draw_roster(w, 7);
        const auto b = draw_roster(w, 7);
        ASSERT_EQ(a.size(), b.size());
        std::set<std::string> keys;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].index, b[i].index);
            keys.insert(device_key(w, a[i]));
        }
        EXPECT_EQ(keys.size(), a.size()) << "draw repeats a device";
        const auto c = draw_roster(w, 8);
        bool differs = false;
        for (std::size_t i = 0; i < a.size(); ++i)
            differs |= a[i].index != c[i].index;
        EXPECT_TRUE(differs);
    }
}

TEST(CampaignBench, HistogramQuantilesWithinBucketWidth) {
    NsHistogram h;
    for (std::uint64_t v = 1; v <= 100000; ++v) h.add(v);
    EXPECT_EQ(h.count(), 100000u);
    EXPECT_NEAR(h.quantile(0.50), 50000.0, 50000.0 * 0.02);
    EXPECT_NEAR(h.quantile(0.99), 99000.0, 99000.0 * 0.02);
    EXPECT_EQ(NsHistogram{}.quantile(0.5), 0.0);
}

} // namespace
