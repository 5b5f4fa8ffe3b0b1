#include "cellfi/lte/scheduler.h"

#include <algorithm>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "cellfi/common/rng.h"
#include "cellfi/lte/enodeb.h"
#include "cellfi/phy/cqi_mcs.h"

namespace cellfi::lte {
namespace {

std::vector<int> Cqis(int n, int value) { return std::vector<int>(static_cast<std::size_t>(n), value); }

class SchedulerFixture : public ::testing::Test {
 protected:
  static constexpr int kSubchannels = 13;

  UeContext& MakeUe(UeId id, std::uint64_t dl_bytes, int cqi) {
    ues_.push_back(std::make_unique<UeContext>(id, kSubchannels));
    ues_.back()->EnqueueDownlink(dl_bytes);
    ues_.back()->UpdateCqi(cqi, Cqis(kSubchannels, cqi));
    ptrs_.push_back(ues_.back().get());
    return *ues_.back();
  }

  std::vector<bool> AllAllowed() { return std::vector<bool>(kSubchannels, true); }

  std::vector<std::unique_ptr<UeContext>> ues_;
  std::vector<UeContext*> ptrs_;
};

TEST_F(SchedulerFixture, PfUsesAllSubchannelsForOneBackloggedUe) {
  MakeUe(0, 1 << 20, 10);
  auto sched = MakeScheduler(SchedulerType::kProportionalFair);
  SubchannelAssignment a;
  sched->AssignDownlink(ptrs_, AllAllowed(), a);
  for (int owner : a) EXPECT_EQ(owner, 0);
}

TEST_F(SchedulerFixture, PfRespectsAllowedMask) {
  MakeUe(0, 1 << 20, 10);
  std::vector<bool> mask(kSubchannels, false);
  mask[2] = mask[5] = true;
  auto sched = MakeScheduler(SchedulerType::kProportionalFair);
  SubchannelAssignment a;
  sched->AssignDownlink(ptrs_, mask, a);
  for (std::size_t s = 0; s < a.size(); ++s) {
    if (s == 2 || s == 5) {
      EXPECT_EQ(a[s], 0);
    } else {
      EXPECT_EQ(a[s], -1);
    }
  }
}

TEST_F(SchedulerFixture, PfSkipsUesWithoutData) {
  MakeUe(0, 0, 10);
  MakeUe(1, 1 << 20, 10);
  auto sched = MakeScheduler(SchedulerType::kProportionalFair);
  SubchannelAssignment a;
  sched->AssignDownlink(ptrs_, AllAllowed(), a);
  for (int owner : a) EXPECT_EQ(owner, 1);
}

TEST_F(SchedulerFixture, PfFavoursUnderservedUe) {
  UeContext& a = MakeUe(0, 1 << 20, 10);
  UeContext& b = MakeUe(1, 1 << 20, 10);
  // UE 0 has been served heavily, UE 1 starved -> PF must pick UE 1.
  for (int i = 0; i < 200; ++i) {
    a.UpdatePfAverage(10000.0, 100.0);
    b.UpdatePfAverage(0.0, 100.0);
  }
  auto sched = MakeScheduler(SchedulerType::kProportionalFair);
  SubchannelAssignment assign;
  sched->AssignDownlink(ptrs_, AllAllowed(), assign);
  for (int owner : assign) EXPECT_EQ(owner, 1);
}

TEST_F(SchedulerFixture, PfPrefersPerSubchannelQuality) {
  // Two UEs with equal averages but complementary subband CQI: each should
  // win the subchannels where it is stronger (OFDMA frequency selectivity).
  UeContext& a = MakeUe(0, 1 << 20, 10);
  UeContext& b = MakeUe(1, 1 << 20, 10);
  std::vector<int> cq_a(kSubchannels, 4), cq_b(kSubchannels, 4);
  for (int s = 0; s < kSubchannels; ++s) (s < 6 ? cq_a : cq_b)[static_cast<std::size_t>(s)] = 14;
  a.UpdateCqi(9, cq_a);
  b.UpdateCqi(9, cq_b);
  auto sched = MakeScheduler(SchedulerType::kProportionalFair);
  SubchannelAssignment assign;
  sched->AssignDownlink(ptrs_, AllAllowed(), assign);
  for (int s = 0; s < 6; ++s) EXPECT_EQ(assign[static_cast<std::size_t>(s)], 0) << s;
  for (int s = 6; s < kSubchannels; ++s) EXPECT_EQ(assign[static_cast<std::size_t>(s)], 1) << s;
}

TEST_F(SchedulerFixture, HarqRetxClaimsOriginalWidth) {
  UeContext& a = MakeUe(0, 1 << 20, 10);
  MakeUe(1, 1 << 20, 15);
  a.harq_dl().active = true;
  a.harq_dl().num_subchannels = 4;
  a.harq_dl().cqi = 10;
  auto sched = MakeScheduler(SchedulerType::kProportionalFair);
  SubchannelAssignment assign;
  sched->AssignDownlink(ptrs_, AllAllowed(), assign);
  int ue0 = 0;
  for (int owner : assign) {
    if (owner == 0) ++ue0;
  }
  EXPECT_EQ(ue0, 4);  // exactly the retransmission width
}

TEST_F(SchedulerFixture, UplinkAckOnlyGetsSingleSubchannel) {
  // Fig. 1(c): a TCP-ACK uplink (66 bytes queued) fits one subchannel.
  UeContext& a = MakeUe(0, 0, 10);
  a.EnqueueUplink(66);
  auto sched = MakeScheduler(SchedulerType::kProportionalFair);
  SubchannelAssignment assign;
  sched->AssignUplink(ptrs_, AllAllowed(), 124, 2, assign);
  int count = 0;
  for (int owner : assign) {
    if (owner == 0) ++count;
  }
  EXPECT_EQ(count, 1);
}

TEST_F(SchedulerFixture, UplinkPicksBestSubchannel) {
  UeContext& a = MakeUe(0, 0, 10);
  std::vector<int> cq(kSubchannels, 5);
  cq[7] = 14;
  a.UpdateCqi(6, cq);
  a.EnqueueUplink(66);
  auto sched = MakeScheduler(SchedulerType::kProportionalFair);
  SubchannelAssignment assign;
  sched->AssignUplink(ptrs_, AllAllowed(), 124, 2, assign);
  EXPECT_EQ(assign[7], 0);
}

TEST_F(SchedulerFixture, UplinkBackloggedFillsBand) {
  UeContext& a = MakeUe(0, 0, 10);
  a.EnqueueUplink(1 << 20);
  auto sched = MakeScheduler(SchedulerType::kProportionalFair);
  SubchannelAssignment assign;
  sched->AssignUplink(ptrs_, AllAllowed(), 124, 2, assign);
  for (int owner : assign) EXPECT_EQ(owner, 0);
}

TEST_F(SchedulerFixture, RoundRobinSharesAcrossUes) {
  MakeUe(0, 1 << 20, 10);
  MakeUe(1, 1 << 20, 10);
  MakeUe(2, 1 << 20, 10);
  auto sched = MakeScheduler(SchedulerType::kRoundRobin);
  std::vector<int> counts(3, 0);
  for (int round = 0; round < 3; ++round) {
    SubchannelAssignment assign;
    sched->AssignDownlink(ptrs_, AllAllowed(), assign);
    for (int owner : assign) {
      ASSERT_GE(owner, 0);
      ++counts[static_cast<std::size_t>(owner)];
    }
  }
  // 39 grants over 3 UEs: equal shares.
  EXPECT_EQ(counts[0], 13);
  EXPECT_EQ(counts[1], 13);
  EXPECT_EQ(counts[2], 13);
}


TEST_F(SchedulerFixture, MaxCqiGivesEverythingToBestUe) {
  UeContext& a = MakeUe(0, 1 << 20, 6);
  UeContext& b = MakeUe(1, 1 << 20, 14);
  (void)a;
  (void)b;
  auto sched = MakeScheduler(SchedulerType::kMaxCqi);
  SubchannelAssignment assign;
  sched->AssignDownlink(ptrs_, AllAllowed(), assign);
  for (int owner : assign) EXPECT_EQ(owner, 1);  // edge UE starves
}

TEST_F(SchedulerFixture, MaxCqiStillPicksPerSubchannelWinner) {
  UeContext& a = MakeUe(0, 1 << 20, 8);
  UeContext& b = MakeUe(1, 1 << 20, 8);
  std::vector<int> cq_a(kSubchannels, 4), cq_b(kSubchannels, 4);
  for (int s = 0; s < kSubchannels; ++s) (s % 2 == 0 ? cq_a : cq_b)[static_cast<std::size_t>(s)] = 13;
  a.UpdateCqi(8, cq_a);
  b.UpdateCqi(8, cq_b);
  auto sched = MakeScheduler(SchedulerType::kMaxCqi);
  SubchannelAssignment assign;
  sched->AssignDownlink(ptrs_, AllAllowed(), assign);
  for (int s = 0; s < kSubchannels; ++s) {
    EXPECT_EQ(assign[static_cast<std::size_t>(s)], s % 2 == 0 ? 0 : 1) << s;
  }
}

TEST_F(SchedulerFixture, MaxCqiFallsBackWhenBestHasNoData) {
  MakeUe(0, 0, 15);        // best channel, empty queue
  MakeUe(1, 1 << 20, 5);   // worse channel, has data
  auto sched = MakeScheduler(SchedulerType::kMaxCqi);
  SubchannelAssignment assign;
  sched->AssignDownlink(ptrs_, AllAllowed(), assign);
  for (int owner : assign) EXPECT_EQ(owner, 1);
}

TEST_F(SchedulerFixture, RankSubchannelsDescending) {
  UeContext& a = MakeUe(0, 100, 5);
  std::vector<int> cq(kSubchannels, 3);
  cq[4] = 15;
  cq[9] = 10;
  a.UpdateCqi(4, cq);
  std::vector<int> ranked;
  RankSubchannelsByCqi(a, AllAllowed(), ranked);
  EXPECT_EQ(ranked[0], 4);
  EXPECT_EQ(ranked[1], 9);
}

/// Test-local reference for the ranking: the std::stable_sort by
/// descending CQI that RankSubchannelsByCqi's counting sort replaces.
std::vector<int> StableSortRanking(const UeContext& ue, const std::vector<bool>& mask) {
  std::vector<int> ranked;
  for (std::size_t s = 0; s < mask.size(); ++s) {
    if (mask[s]) ranked.push_back(static_cast<int>(s));
  }
  std::stable_sort(ranked.begin(), ranked.end(), [&](int a, int b) {
    const int ca = ue.has_cqi() ? ue.SubbandCqi(a) : kMinCqi;
    const int cb = ue.has_cqi() ? ue.SubbandCqi(b) : kMinCqi;
    return ca > cb;
  });
  return ranked;
}

TEST_F(SchedulerFixture, RankingMatchesStableSortOracle) {
  Rng rng(2024);
  std::vector<int> ranked;  // reused across trials, like the scheduler's scratch
  for (int trial = 0; trial < 600; ++trial) {
    // 5 MHz and 20 MHz grids.
    const int n = trial % 2 == 0 ? 13 : 25;
    UeContext ue(0, n);
    if (trial % 10 != 3) {  // every tenth UE has not reported CQI yet
      std::vector<int> cq(static_cast<std::size_t>(n));
      for (int& c : cq) c = static_cast<int>(rng.UniformInt(0, kMaxCqi));
      ue.UpdateCqi(7, cq);
    }
    std::vector<bool> mask(static_cast<std::size_t>(n), trial % 6 == 1);
    if (trial % 6 >= 2) {
      for (std::size_t s = 0; s < mask.size(); ++s) mask[s] = rng.Bernoulli(0.6);
    }
    RankSubchannelsByCqi(ue, mask, ranked);
    EXPECT_EQ(ranked, StableSortRanking(ue, mask)) << "trial " << trial;
  }
}

TEST_F(SchedulerFixture, UplinkBacklogOrderMatchesStableSortOracle) {
  Rng rng(77);
  std::vector<std::size_t> order;
  for (int trial = 0; trial < 300; ++trial) {
    ues_.clear();
    ptrs_.clear();
    const int n = static_cast<int>(rng.UniformInt(0, 8));
    for (int u = 0; u < n; ++u) {
      // Four distinct backlogs among up to eight UEs: ties are common.
      MakeUe(u, 0, 10).EnqueueUplink(static_cast<std::uint64_t>(66 * rng.UniformInt(0, 3)));
    }
    std::vector<std::size_t> expected(static_cast<std::size_t>(n));
    std::iota(expected.begin(), expected.end(), 0u);
    std::stable_sort(expected.begin(), expected.end(), [&](std::size_t a, std::size_t b) {
      return ptrs_[a]->ul_queue_bytes() > ptrs_[b]->ul_queue_bytes();
    });
    OrderByUplinkBacklog(ptrs_, order);
    EXPECT_EQ(order, expected) << "trial " << trial;
  }
}

/// The efficiency row of a UE whose only report is `cq`.
std::vector<double> EfficiencyOf(const std::vector<int>& cq) {
  UeContext ue(0, static_cast<int>(cq.size()));
  ue.UpdateCqi(cq.front(), cq);
  return ue.cqi_efficiency();
}

TEST(AggregateCqiTest, MeanEfficiencyQuantizedDown) {
  const std::vector<double> eff = EfficiencyOf({15, 1, 1, 1});
  // Mean efficiency of {15,1} over subchannels {0,1} = (5.55+0.15)/2 = 2.85
  // -> CQI 10 (2.73) is the largest not exceeding it.
  EXPECT_EQ(AggregateCqi(eff, std::vector<int>{0, 1}), 10);
  EXPECT_EQ(AggregateCqi(eff, std::vector<int>{0}), 15);
  EXPECT_EQ(AggregateCqi(eff, std::vector<int>{1}), 1);
  EXPECT_EQ(AggregateCqi(eff, {}), 0);
}

TEST(AggregateCqiTest, ZeroCqiSubchannelDragsDown) {
  const int agg = AggregateCqi(EfficiencyOf({0, 0, 0, 6}), std::vector<int>{0, 1, 2, 3});
  EXPECT_LT(agg, 6);
}

TEST(AggregateCqiTest, UnreportedUeGetsMinCqi) {
  const UeContext ue(0, 13);
  EXPECT_EQ(AggregateCqi(ue.cqi_efficiency(), std::vector<int>{0, 4, 12}), kMinCqi);
}

/// Both derived CQI rows against their definitions: the efficiency of the
/// effective CQI, and every subchannel stable-sorted by it.
void ExpectCqiStateMatchesOracle(const UeContext& ue, const std::string& what) {
  const int n = static_cast<int>(ue.subband_cqi().size());
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return ue.EffectiveSubbandCqi(a) > ue.EffectiveSubbandCqi(b);
  });
  EXPECT_EQ(ue.cqi_order(), order) << what;
  for (int s = 0; s < n; ++s) {
    EXPECT_EQ(ue.cqi_efficiency()[static_cast<std::size_t>(s)],
              CqiEfficiency(ue.EffectiveSubbandCqi(s)))
        << what << " s=" << s;
  }
}

TEST(UeCqiStateTest, CachedRowsMatchOraclesAcrossReportsAndHandover) {
  Rng rng(31);
  for (int n : {13, 25}) {
    UeContext ue(0, n);
    ExpectCqiStateMatchesOracle(ue, "before the first report");
    std::vector<int> cq(static_cast<std::size_t>(n), 0);
    for (int report = 0; report < 400; ++report) {
      // About half the reports repeat the previous one; the rest redraw a
      // few sub-bands (ties are common with 16 levels over 13+ sub-bands).
      if (!rng.Bernoulli(0.5)) {
        for (int k = 0; k < 3; ++k) {
          cq[static_cast<std::size_t>(rng.UniformInt(0, n - 1))] =
              static_cast<int>(rng.UniformInt(0, kMaxCqi));
        }
      }
      ue.UpdateCqi(static_cast<int>(rng.UniformInt(0, kMaxCqi)), cq);
      EXPECT_EQ(ue.subband_cqi(), cq);
      ExpectCqiStateMatchesOracle(ue, "report " + std::to_string(report));
    }
    // Handover: the target cell's fresh context imports queues and
    // statistics but no CQI, so it plans at kMinCqi again.
    UeContext target(0, n);
    target.ImportOnHandover(ue);
    EXPECT_FALSE(target.has_cqi());
    ExpectCqiStateMatchesOracle(target, "after handover");
    target.UpdateCqi(9, cq);
    ExpectCqiStateMatchesOracle(target, "first report after handover");
  }
}

/// Test-local reference for the proportional-fair pass: subchannel-major,
/// CQI and efficiency derived per (subchannel, UE) on every call.
SubchannelAssignment PfReference(const std::vector<UeContext*>& ues,
                                 const std::vector<bool>& mask,
                                 SubchannelAssignment out) {
  for (std::size_t s = 0; s < mask.size(); ++s) {
    if (!mask[s] || out[s] != -1) continue;
    double best_metric = 0.0;
    int best_ue = -1;
    for (std::size_t u = 0; u < ues.size(); ++u) {
      const UeContext& ue = *ues[u];
      if (ue.harq_dl().active || ue.dl_queue_bytes() == 0) continue;
      const int cqi = ue.EffectiveSubbandCqi(static_cast<int>(s));
      if (cqi < kMinCqi) continue;
      const double metric = CqiEfficiency(cqi) / ue.average_rate();
      if (metric > best_metric) {
        best_metric = metric;
        best_ue = static_cast<int>(u);
      }
    }
    out[s] = best_ue;
  }
  return out;
}

TEST_F(SchedulerFixture, PfMatchesSubchannelMajorReference) {
  Rng rng(57);
  auto sched = MakeScheduler(SchedulerType::kProportionalFair);
  SubchannelAssignment got;
  for (int trial = 0; trial < 300; ++trial) {
    ues_.clear();
    ptrs_.clear();
    const int n = static_cast<int>(rng.UniformInt(1, 6));
    for (int u = 0; u < n; ++u) {
      ues_.push_back(std::make_unique<UeContext>(u, kSubchannels));
      UeContext& ue = *ues_.back();
      if (rng.Bernoulli(0.8)) ue.EnqueueDownlink(1 << 16);
      if (rng.Bernoulli(0.8)) {  // the rest have not reported yet
        std::vector<int> cq(kSubchannels);
        for (int& c : cq) c = static_cast<int>(rng.UniformInt(0, 4)) * 3;  // ties
        ue.UpdateCqi(7, cq);
      }
      // Equal averages on some UEs so metric ties go to list order.
      ue.UpdatePfAverage(rng.Bernoulli(0.5) ? 500.0 : 900.0, 10.0);
      ptrs_.push_back(&ue);
    }
    std::vector<bool> mask(kSubchannels, true);
    for (std::size_t s = 0; s < mask.size(); ++s) mask[s] = rng.Bernoulli(0.8);
    sched->AssignDownlink(ptrs_, mask, got);
    // No HARQ is pending, so the pass starts from an all -1 assignment.
    EXPECT_EQ(got, PfReference(ptrs_, mask, SubchannelAssignment(kSubchannels, -1)))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace cellfi::lte
