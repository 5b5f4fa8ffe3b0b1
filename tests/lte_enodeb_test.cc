#include "cellfi/lte/enodeb.h"

#include <gtest/gtest.h>

#include "cellfi/phy/cqi_mcs.h"

namespace cellfi::lte {
namespace {

LteMacConfig Config5MHz() {
  LteMacConfig cfg;
  cfg.bandwidth = LteBandwidth::k5MHz;
  return cfg;
}

TEST(EnodebTest, AddFindRemoveUe) {
  EnodeB enb(0, Config5MHz());
  EXPECT_FALSE(enb.has_ues());
  enb.AddUe(7);
  EXPECT_NE(enb.FindUe(7), nullptr);
  EXPECT_EQ(enb.FindUe(8), nullptr);
  enb.RemoveUe(7);
  EXPECT_EQ(enb.FindUe(7), nullptr);
}

TEST(EnodebTest, PlanEmptyWithoutTraffic) {
  EnodeB enb(0, Config5MHz());
  enb.AddUe(1);
  TxPlan plan;
  enb.PlanDownlink(plan);
  EXPECT_TRUE(plan.transmissions.empty());
  for (bool b : plan.data_active) EXPECT_FALSE(b);
}

TEST(EnodebTest, BackloggedUeGetsFullBand) {
  EnodeB enb(0, Config5MHz());
  UeContext& ue = enb.AddUe(1);
  ue.EnqueueDownlink(1 << 20);
  ue.UpdateCqi(10, std::vector<int>(13, 10));
  TxPlan plan;
  enb.PlanDownlink(plan);
  ASSERT_EQ(plan.transmissions.size(), 1u);
  EXPECT_EQ(plan.transmissions[0].subchannels.size(), 13u);
  EXPECT_EQ(plan.transmissions[0].cqi, 10);
  EXPECT_GT(plan.transmissions[0].tb_bits, 0);
}

TEST(EnodebTest, AllowedMaskLimitsPlan) {
  EnodeB enb(0, Config5MHz());
  UeContext& ue = enb.AddUe(1);
  ue.EnqueueDownlink(1 << 20);
  ue.UpdateCqi(10, std::vector<int>(13, 10));
  std::vector<bool> mask(13, false);
  mask[0] = mask[1] = mask[2] = true;
  enb.SetAllowedMask(mask);
  EXPECT_EQ(enb.allowed_count(), 3);
  TxPlan plan;
  enb.PlanDownlink(plan);
  ASSERT_EQ(plan.transmissions.size(), 1u);
  EXPECT_EQ(plan.transmissions[0].subchannels.size(), 3u);
}

TEST(EnodebTest, SmallPayloadStillUsesWholeAllocation) {
  EnodeB enb(0, Config5MHz());
  UeContext& ue = enb.AddUe(1);
  ue.EnqueueDownlink(100);  // one small packet
  ue.UpdateCqi(10, std::vector<int>(13, 10));
  TxPlan plan;
  enb.PlanDownlink(plan);
  ASSERT_EQ(plan.transmissions.size(), 1u);
  EXPECT_EQ(plan.transmissions[0].payload_bytes, 100u);
}

TEST(EnodebTest, DeliverySuccessDrainsQueueAndCounts) {
  EnodeB enb(0, Config5MHz());
  UeContext& ue = enb.AddUe(1);
  ue.EnqueueDownlink(10000);
  ue.UpdateCqi(10, std::vector<int>(13, 10));
  Rng rng(1);
  TxPlan plan;
  enb.PlanDownlink(plan);
  const auto result = enb.CompleteDownlink(plan.transmissions[0], 30.0, rng);
  EXPECT_TRUE(result.delivered);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_LT(ue.dl_queue_bytes(), 10000u);
  EXPECT_GT(ue.dl_delivered_bits, 0u);
  EXPECT_GT(enb.total_dl_bits(), 0u);
  EXPECT_FALSE(ue.harq_dl().active);
  // Exactly one delivered downlink block, at CQI 10 on all 13 subchannels.
  for (int cqi = 0; cqi <= kMaxCqi; ++cqi) {
    EXPECT_EQ(ue.dl_blocks.by_cqi[static_cast<std::size_t>(cqi)], cqi == 10 ? 1u : 0u) << cqi;
  }
  for (std::size_t width = 0; width < ue.dl_blocks.by_width.size(); ++width) {
    EXPECT_EQ(ue.dl_blocks.by_width[width], width == 13 ? 1u : 0u) << width;
  }
}

TEST(EnodebTest, DeliveryFailureArmsHarq) {
  EnodeB enb(0, Config5MHz());
  UeContext& ue = enb.AddUe(1);
  ue.EnqueueDownlink(10000);
  ue.UpdateCqi(10, std::vector<int>(13, 10));
  Rng rng(1);
  TxPlan plan;
  enb.PlanDownlink(plan);
  // SINR 30 dB below the MCS: certain failure.
  const auto result = enb.CompleteDownlink(plan.transmissions[0], -20.0, rng);
  EXPECT_FALSE(result.delivered);
  EXPECT_FALSE(result.dropped);
  EXPECT_TRUE(ue.harq_dl().active);
  EXPECT_EQ(ue.harq_dl().attempts, 1);
  EXPECT_EQ(ue.dl_queue_bytes(), 10000u);  // nothing drained yet
}

TEST(EnodebTest, HarqDropsAfterMaxAttempts) {
  LteMacConfig cfg = Config5MHz();
  cfg.harq_max_transmissions = 4;
  EnodeB enb(0, cfg);
  UeContext& ue = enb.AddUe(1);
  ue.EnqueueDownlink(10000);
  ue.UpdateCqi(10, std::vector<int>(13, 10));
  Rng rng(1);
  for (int attempt = 1; attempt <= 4; ++attempt) {
    TxPlan plan;
    enb.PlanDownlink(plan);
    ASSERT_EQ(plan.transmissions.size(), 1u) << attempt;
    EXPECT_EQ(plan.transmissions[0].is_harq_retx, attempt > 1);
    const auto result = enb.CompleteDownlink(plan.transmissions[0], -30.0, rng);
    EXPECT_FALSE(result.delivered);
    EXPECT_EQ(result.dropped, attempt == 4);
  }
  EXPECT_FALSE(ue.harq_dl().active);  // reset after drop
  EXPECT_EQ(ue.dl_lost_blocks, 1u);
  EXPECT_EQ(ue.dl_queue_bytes(), 10000u);  // data still queued for retry
}

TEST(EnodebTest, HarqCombiningDeliversMarginalLink) {
  EnodeB enb(0, Config5MHz());
  UeContext& ue = enb.AddUe(1);
  ue.EnqueueDownlink(1 << 20);
  ue.UpdateCqi(7, std::vector<int>(13, 7));
  Rng rng(3);
  // 2.9 dB below CQI 7's threshold: first attempt nearly always fails, the
  // +3 dB chase gain on attempt 2 nearly always succeeds.
  const double sinr = CqiTable(7).sinr_threshold_db - 2.9;
  int delivered = 0, attempts_total = 0;
  for (int i = 0; i < 300; ++i) {
    ue.harq_dl().Clear();
    int attempts = 0;
    while (true) {
      TxPlan plan;
      enb.PlanDownlink(plan);
      const auto result = enb.CompleteDownlink(plan.transmissions[0], sinr, rng);
      ++attempts;
      if (result.delivered) {
        ++delivered;
        break;
      }
      if (result.dropped) break;
    }
    attempts_total += attempts;
  }
  EXPECT_GT(delivered, 290);
  EXPECT_GT(attempts_total, 450);  // retransmissions were actually needed
}

TEST(EnodebTest, RetxPlanKeepsTbsAndCqi) {
  EnodeB enb(0, Config5MHz());
  UeContext& ue = enb.AddUe(1);
  ue.EnqueueDownlink(1 << 20);
  ue.UpdateCqi(12, std::vector<int>(13, 12));
  Rng rng(1);
  TxPlan first;
  enb.PlanDownlink(first);
  const int tb = first.transmissions[0].tb_bits;
  enb.CompleteDownlink(first.transmissions[0], -30.0, rng);
  // CQI change between attempts must not alter the in-flight block.
  ue.UpdateCqi(3, std::vector<int>(13, 3));
  TxPlan second;
  enb.PlanDownlink(second);
  ASSERT_EQ(second.transmissions.size(), 1u);
  EXPECT_TRUE(second.transmissions[0].is_harq_retx);
  EXPECT_EQ(second.transmissions[0].tb_bits, tb);
  EXPECT_EQ(second.transmissions[0].cqi, 12);
}

TEST(EnodebTest, UplinkDeliveryDrainsUlQueue) {
  EnodeB enb(0, Config5MHz());
  UeContext& ue = enb.AddUe(1);
  ue.EnqueueUplink(66);
  ue.UpdateCqi(10, std::vector<int>(13, 10));
  Rng rng(1);
  TxPlan plan;
  enb.PlanUplink(plan);
  ASSERT_EQ(plan.transmissions.size(), 1u);
  EXPECT_EQ(plan.transmissions[0].subchannels.size(), 1u);
  const auto result = enb.CompleteUplink(plan.transmissions[0], 30.0, rng);
  EXPECT_TRUE(result.delivered);
  EXPECT_EQ(ue.ul_queue_bytes(), 0u);
  EXPECT_EQ(ue.ul_delivered_bits, 66u * 8u);
}

TEST(EnodebTest, FddConfigHasNoUplinkSubframes) {
  LteMacConfig cfg = Config5MHz();
  cfg.tdd_config = -1;
  EnodeB enb(0, cfg);
  EXPECT_EQ(enb.tdd().uplink_subframes_per_frame(), 0);
  EXPECT_EQ(enb.tdd().downlink_subframes_per_frame(), 10);
}

TEST(EnodebTest, UeWithoutCqiServedAtLowestMcs) {
  EnodeB enb(0, Config5MHz());
  UeContext& ue = enb.AddUe(1);
  ue.EnqueueDownlink(10000);
  TxPlan plan;
  enb.PlanDownlink(plan);
  ASSERT_EQ(plan.transmissions.size(), 1u);
  EXPECT_EQ(plan.transmissions[0].cqi, kMinCqi);
}

}  // namespace
}  // namespace cellfi::lte
