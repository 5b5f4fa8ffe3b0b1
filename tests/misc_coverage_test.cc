// Coverage for the smaller utilities and edge paths: umbrella header
// compiles, logging levels, table rendering, geometry corner cases, uplink
// HARQ at the eNodeB, Wi-Fi retry-limit drops.
#include "cellfi/cellfi.h"  // must compile standalone

#include <sstream>

#include <gtest/gtest.h>

namespace cellfi {
namespace {

TEST(LoggingTest, LevelFiltering) {
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  CELLFI_DEBUG << "dropped";  // must not crash, must not emit
  CELLFI_ERROR << "emitted to stderr";
  SetLogLevel(LogLevel::kOff);
  CELLFI_ERROR << "also dropped";
  SetLogLevel(old_level);
}

TEST(TableTest, RendersAlignedRows) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"bb", "22222"});
  std::ostringstream out;
  t.Print(out, "title");
  const std::string s = out.str();
  EXPECT_NE(s.find("== title =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
  // Column alignment: 'value' starts at the same offset in both rows.
  const auto header_pos = s.find("value");
  const auto row_pos = s.find("22222");
  const auto header_line_start = s.rfind('\n', header_pos);
  const auto row_line_start = s.rfind('\n', row_pos);
  // "22222" aligns under "1", which aligns under "value".
  EXPECT_EQ(s.find('1', s.find("alpha")) - s.rfind('\n', s.find("alpha")),
            header_pos - header_line_start);
  (void)row_line_start;
}

TEST(GeometryTest, AngleDiffWrapsCorrectly) {
  EXPECT_NEAR(AngleDiff(0.1, -0.1), 0.2, 1e-12);
  EXPECT_NEAR(AngleDiff(M_PI - 0.05, -M_PI + 0.05), 0.1, 1e-9);  // across the seam
  EXPECT_NEAR(AngleDiff(3 * M_PI, 0.0), M_PI, 1e-9);
  EXPECT_NEAR(AngleDiff(1.0, 1.0), 0.0, 1e-12);
}

TEST(GeometryTest, BearingQuadrants) {
  EXPECT_NEAR(Bearing({0, 0}, {1, 0}), 0.0, 1e-12);
  EXPECT_NEAR(Bearing({0, 0}, {0, 1}), M_PI / 2, 1e-12);
  EXPECT_NEAR(Bearing({0, 0}, {-1, 0}), M_PI, 1e-12);
  EXPECT_NEAR(Bearing({0, 0}, {0, -1}), -M_PI / 2, 1e-12);
}

TEST(EnodebUplinkTest, UplinkHarqRetransmitsAndDrops) {
  lte::EnodeB enb(0, lte::LteMacConfig{});
  lte::UeContext& ue = enb.AddUe(1);
  ue.EnqueueUplink(4000);
  ue.UpdateCqi(10, std::vector<int>(13, 10));
  Rng rng(1);
  for (int attempt = 1; attempt <= 4; ++attempt) {
    lte::TxPlan plan;
    enb.PlanUplink(plan);
    ASSERT_FALSE(plan.transmissions.empty()) << attempt;
    EXPECT_EQ(plan.transmissions[0].is_harq_retx, attempt > 1);
    const auto result = enb.CompleteUplink(plan.transmissions[0], -30.0, rng);
    EXPECT_FALSE(result.delivered);
    EXPECT_EQ(result.dropped, attempt == 4);
  }
  EXPECT_FALSE(ue.harq_ul().active);
  EXPECT_EQ(ue.ul_queue_bytes(), 4000u);  // bytes stay queued after a drop
}

TEST(EnodebUplinkTest, UplinkSucceedsAfterOneRetx) {
  lte::EnodeB enb(0, lte::LteMacConfig{});
  lte::UeContext& ue = enb.AddUe(1);
  ue.EnqueueUplink(500);
  ue.UpdateCqi(10, std::vector<int>(13, 10));
  Rng rng(2);
  lte::TxPlan plan;
  enb.PlanUplink(plan);
  enb.CompleteUplink(plan.transmissions[0], -30.0, rng);  // fail
  ASSERT_TRUE(ue.harq_ul().active);
  enb.PlanUplink(plan);
  const auto result = enb.CompleteUplink(plan.transmissions[0], 40.0, rng);  // combine
  EXPECT_TRUE(result.delivered);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(ue.ul_queue_bytes(), 0u);
}

TEST(WifiDropTest, RetryLimitDropsHeadAndRecovers) {
  // Two hidden APs without RTS/CTS grind each other down; retry limits
  // must fire (drops > 0) yet both queues keep draining.
  HataUrbanPathLoss pathloss;
  RadioEnvironmentConfig env_cfg;
  env_cfg.carrier_freq_hz = 600e6;
  env_cfg.shadowing_sigma_db = 0.0;
  env_cfg.enable_fading = false;
  Simulator sim;
  RadioEnvironment env(pathloss, env_cfg);
  wifi::WifiMacConfig mac;
  mac.rts_cts = false;
  mac.max_retries = 3;
  wifi::WifiNetwork net(sim, env, mac, 9);
  const auto a = net.AddAp(env.AddNode({.position = {0, 0}, .tx_power_dbm = 30.0}));
  const auto b = net.AddAp(env.AddNode({.position = {1600, 0}, .tx_power_dbm = 30.0}));
  const auto sa = net.AddSta(env.AddNode({.position = {780, 30}, .tx_power_dbm = 30.0}));
  const auto sb = net.AddSta(env.AddNode({.position = {820, -30}, .tx_power_dbm = 30.0}));
  ASSERT_TRUE(net.sta_stats(sa).associated);
  ASSERT_TRUE(net.sta_stats(sb).associated);
  net.OfferDownlink(sa, 8 << 20);
  net.OfferDownlink(sb, 8 << 20);
  net.Start();
  sim.RunUntil(4 * kSecond);
  EXPECT_GT(net.ap_stats(a).drops + net.ap_stats(b).drops, 0u);
  // Without RTS/CTS two backlogged hidden APs can starve each other
  // completely (full-duration collisions) - the MAC must keep cycling
  // (attempt, fail, drop, retry) rather than deadlock.
  EXPECT_GT(net.ap_stats(a).attempts, 100u);
  EXPECT_GT(net.ap_stats(b).attempts, 100u);
  EXPECT_GT(net.sta_stats(sa).exchanges_failed + net.sta_stats(sb).exchanges_failed, 50u);
}

TEST(SelectorConfigTest, EtsiBudgetEnforcedByConstruction) {
  // poll + vacate must fit the 60 s ETSI budget; the selector asserts it.
  core::ChannelSelectorConfig cfg;
  EXPECT_LE(cfg.db_poll_interval + cfg.vacate_delay, cfg.etsi_vacate_budget);
}

TEST(SummaryEdgeTest, EmptyAndSingle) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(HashTest, UnitIntervalNeverZeroOrOne) {
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const double u = HashToUnitInterval(HashWords(i, i * 31));
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace cellfi
