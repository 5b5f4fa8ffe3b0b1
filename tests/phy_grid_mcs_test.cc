#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cellfi/common/rng.h"
#include "cellfi/common/stats.h"
#include "cellfi/common/units.h"
#include "cellfi/phy/cqi_mcs.h"
#include "cellfi/phy/cqi_report.h"
#include "cellfi/phy/harq.h"
#include "cellfi/phy/resource_grid.h"

namespace cellfi {
namespace {

TEST(ResourceGridTest, RbCountsPerBandwidth) {
  EXPECT_EQ(NumResourceBlocks(LteBandwidth::k1_4MHz), 6);
  EXPECT_EQ(NumResourceBlocks(LteBandwidth::k5MHz), 25);
  EXPECT_EQ(NumResourceBlocks(LteBandwidth::k10MHz), 50);
  EXPECT_EQ(NumResourceBlocks(LteBandwidth::k20MHz), 100);
}

TEST(ResourceGridTest, PaperSubchannelCounts) {
  // Section 5: "13 such subchannels on 5 MHz and 25 subchannels on 20 MHz".
  EXPECT_EQ(ResourceGrid(LteBandwidth::k5MHz).num_subchannels(), 13);
  EXPECT_EQ(ResourceGrid(LteBandwidth::k20MHz).num_subchannels(), 25);
}

TEST(ResourceGridTest, SubchannelRbsCoverGridExactly) {
  for (auto bw : {LteBandwidth::k1_4MHz, LteBandwidth::k3MHz, LteBandwidth::k5MHz,
                  LteBandwidth::k10MHz, LteBandwidth::k15MHz, LteBandwidth::k20MHz}) {
    ResourceGrid grid(bw);
    int total = 0;
    for (int s = 0; s < grid.num_subchannels(); ++s) {
      EXPECT_GE(grid.SubchannelRbCount(s), 1);
      EXPECT_LE(grid.SubchannelRbCount(s), grid.rbg_size());
      total += grid.SubchannelRbCount(s);
    }
    EXPECT_EQ(total, grid.num_rbs());
  }
}

TEST(ResourceGridTest, LastSubchannelTruncatedOn5MHz) {
  ResourceGrid grid(LteBandwidth::k5MHz);  // 25 RB, RBG = 2 -> 12*2 + 1
  EXPECT_EQ(grid.SubchannelRbCount(12), 1);
  EXPECT_EQ(grid.SubchannelRbCount(0), 2);
}

TEST(ResourceGridTest, SubchannelOfRbInvertsMapping) {
  ResourceGrid grid(LteBandwidth::k10MHz);
  for (int rb = 0; rb < grid.num_rbs(); ++rb) {
    const int s = grid.SubchannelOfRb(rb);
    EXPECT_GE(rb, grid.SubchannelFirstRb(s));
    EXPECT_LT(rb, grid.SubchannelFirstRb(s) + grid.SubchannelRbCount(s));
  }
}

TEST(ResourceGridTest, DataReBudgetSane) {
  ResourceGrid grid(LteBandwidth::k5MHz, /*pdcch_symbols=*/3);
  // 168 total, minus 36 PDCCH REs, minus 8 CRS = 124.
  EXPECT_EQ(grid.TotalResourceElementsPerRb(), 168);
  EXPECT_EQ(grid.DataResourceElementsPerRb(), 124);
  // Signalling-only interference is weak relative to data interference
  // (~ -12 dB): 8 CRS REs over the 132-RE data region.
  EXPECT_NEAR(grid.ControlPowerFraction(), 8.0 / 132.0, 1e-12);
}

TEST(TddConfigTest, Config4MatchesPaper) {
  // Paper Section 6.3.4: TDD configuration 4 = 7 DL + 2 UL subframes.
  TddConfig tdd(4);
  EXPECT_EQ(tdd.downlink_subframes_per_frame(), 7);
  EXPECT_EQ(tdd.uplink_subframes_per_frame(), 2);
  EXPECT_EQ(tdd.TypeOf(0), SubframeType::kDownlink);
  EXPECT_EQ(tdd.TypeOf(1), SubframeType::kSpecial);
  EXPECT_EQ(tdd.TypeOf(2), SubframeType::kUplink);
}

TEST(TddConfigTest, TypeAtWrapsFrames) {
  TddConfig tdd(4);
  EXPECT_EQ(tdd.TypeAt(0), SubframeType::kDownlink);
  EXPECT_EQ(tdd.TypeAt(2 * kMillisecond), SubframeType::kUplink);
  EXPECT_EQ(tdd.TypeAt(12 * kMillisecond), SubframeType::kUplink);
  EXPECT_EQ(tdd.TypeAt(19 * kMillisecond), SubframeType::kDownlink);
}

TEST(TddConfigTest, FddAllDownlink) {
  TddConfig fdd = TddConfig::FddDownlink();
  EXPECT_EQ(fdd.downlink_subframes_per_frame(), 10);
  EXPECT_EQ(fdd.uplink_subframes_per_frame(), 0);
}

TEST(CqiTableTest, MonotoneEfficiencyAndThresholds) {
  for (int c = kMinCqi + 1; c <= kMaxCqi; ++c) {
    EXPECT_GT(CqiTable(c).efficiency, CqiTable(c - 1).efficiency);
    EXPECT_GT(CqiTable(c).sinr_threshold_db, CqiTable(c - 1).sinr_threshold_db);
  }
}

TEST(CqiTableTest, PaperCodingRateRange) {
  // Table 1: LTE coding rate >= 0.1 (vs 802.11af's >= 0.5).
  EXPECT_LT(CqiCodeRate(1), 0.1);
  EXPECT_NEAR(CqiCodeRate(1), 78.0 / 1024.0, 1e-9);
  EXPECT_NEAR(CqiCodeRate(15), 948.0 / 1024.0, 1e-9);
}

TEST(SinrToCqiTest, ThresholdBehaviour) {
  EXPECT_EQ(SinrToCqi(-10.0), 0);   // below range: link unusable
  EXPECT_EQ(SinrToCqi(-6.7), 1);
  EXPECT_EQ(SinrToCqi(-5.0), 1);
  EXPECT_EQ(SinrToCqi(22.7), 15);
  EXPECT_EQ(SinrToCqi(40.0), 15);
}

TEST(SinrToCqiTest, MonotoneInSinr) {
  int prev = 0;
  for (double s = -12.0; s <= 30.0; s += 0.25) {
    const int c = SinrToCqi(s);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(BlerTest, TenPercentAtThreshold) {
  for (int c = kMinCqi; c <= kMaxCqi; ++c) {
    EXPECT_NEAR(BlerAt(c, CqiTable(c).sinr_threshold_db), 0.10, 1e-9);
  }
}

TEST(BlerTest, DecreasesWithSinr) {
  EXPECT_GT(BlerAt(7, 4.0), BlerAt(7, 6.0));
  EXPECT_GT(BlerAt(7, 6.0), BlerAt(7, 10.0));
  EXPECT_LT(BlerAt(7, 20.0), 1e-6);
  EXPECT_GT(BlerAt(7, -10.0), 0.999);
}

TEST(TransportBlockTest, ScalesWithRbsAndCqi) {
  const int re = 124;
  EXPECT_EQ(TransportBlockBits(0, 10, re), 0);
  EXPECT_EQ(TransportBlockBits(5, 0, re), 0);
  EXPECT_GT(TransportBlockBits(15, 25, re), TransportBlockBits(1, 25, re));
  EXPECT_NEAR(TransportBlockBits(10, 20, re), 2 * TransportBlockBits(10, 10, re), 1);
  // CQI 15 over a full 5 MHz DL subframe ~ 25 * 124 * 5.5547 ~ 17.2 kbit.
  EXPECT_NEAR(TransportBlockBits(15, 25, re), 17219, 10);
}

TEST(HarqTest, HighSinrDeliversFirstTry) {
  HarqProcess harq;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto out = harq.Deliver(7, 30.0, rng);
    EXPECT_TRUE(out.delivered);
    EXPECT_EQ(out.transmissions, 1);
  }
}

TEST(HarqTest, CombiningRaisesEffectiveSinr) {
  HarqProcess harq(4);
  Rng rng(2);
  // At 3 dB below threshold a single attempt almost always fails, but chase
  // combining across 2 attempts doubles the energy (+3 dB).
  const double sinr = CqiTable(7).sinr_threshold_db - 3.0;
  int delivered = 0;
  Summary attempts;
  for (int i = 0; i < 2000; ++i) {
    const auto out = harq.Deliver(7, sinr, rng);
    if (out.delivered) ++delivered;
    attempts.Add(out.transmissions);
  }
  EXPECT_GT(delivered, 1800);       // HARQ rescues the link
  EXPECT_GT(attempts.mean(), 1.5);  // but needs retransmissions
}

TEST(HarqTest, StatsTrackRetransmissions) {
  HarqStats stats;
  stats.Record({.delivered = true, .transmissions = 1});
  stats.Record({.delivered = true, .transmissions = 3});
  stats.Record({.delivered = false, .transmissions = 4});
  EXPECT_EQ(stats.blocks, 3);
  EXPECT_NEAR(stats.RetransmissionFraction(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.ResidualLossRate(), 1.0 / 3.0, 1e-12);
}

TEST(HarqTest, ZeroCqiNeverDelivers) {
  HarqProcess harq;
  Rng rng(3);
  EXPECT_FALSE(harq.Deliver(0, 30.0, rng).delivered);
}

TEST(CqiReportTest, Mode30RoundTripWithinQuantization) {
  CqiMeasurement m;
  m.wideband_cqi = 9;
  m.subband_cqi = {9, 10, 11, 12, 8, 3, 9, 9, 10, 11, 9, 7, 9};
  const auto decoded = DecodeMode30(EncodeMode30(m));
  EXPECT_EQ(decoded.wideband_cqi, 9);
  ASSERT_EQ(decoded.subband_cqi.size(), m.subband_cqi.size());
  // Offsets clamp to {-1, 0, +1, +2}.
  EXPECT_EQ(decoded.subband_cqi[0], 9);
  EXPECT_EQ(decoded.subband_cqi[1], 10);
  EXPECT_EQ(decoded.subband_cqi[2], 11);
  EXPECT_EQ(decoded.subband_cqi[3], 11);  // +3 clamps to +2
  EXPECT_EQ(decoded.subband_cqi[4], 8);
  EXPECT_EQ(decoded.subband_cqi[5], 8);   // -6 clamps to -1
}

TEST(CqiReportTest, PayloadSizeFor5MHz) {
  CqiMeasurement m;
  m.wideband_cqi = 10;
  m.subband_cqi.assign(13, 10);  // 13 subchannels on 5 MHz
  const auto r = EncodeMode30(m);
  EXPECT_EQ(PayloadBits(r), 4 + 13 * 2);
}

TEST(CqiReportTest, OverheadMatchesPaperOrder) {
  // Paper: ~10 kbps uplink overhead at a 2 ms reporting period. With our
  // exact encoding (4 + 13*2 = 30 bits) the overhead is 15 kbps - same
  // order; the paper's 20-bit figure appears to count fewer sub-bands.
  const double bps = SignallingOverheadBps(30, 2.0);
  EXPECT_NEAR(bps, 15000.0, 1e-9);
  EXPECT_NEAR(SignallingOverheadBps(20, 2.0), 10000.0, 1e-9);
}

// The CqiMeasurer formula written out independently: sub-band CQI from
// SINR + margin, wideband CQI from the mean linear SINR, then the optional
// mode 3-0 round trip.
struct ReferenceCqi {
  CqiMeasurement decoded;
  int wideband_cqi = 0;
  double wideband_sinr_db = 0.0;
};

ReferenceCqi MeasureReference(const std::vector<double>& sinr, double margin, bool mode30) {
  ReferenceCqi r;
  double linear = 0.0;
  for (double s : sinr) {
    r.decoded.subband_cqi.push_back(SinrToCqi(s + margin));
    linear += DbToLinear(s);
  }
  r.wideband_sinr_db = LinearToDb(linear / static_cast<double>(sinr.size()));
  r.decoded.wideband_cqi = SinrToCqi(r.wideband_sinr_db + margin);
  r.wideband_cqi = r.decoded.wideband_cqi;
  if (mode30) r.decoded = DecodeMode30(EncodeMode30(r.decoded));
  return r;
}

TEST(CqiMeasurerTest, MatchesFormulaAcrossRepeatsAndEveryInputChange) {
  // A stream that repeats each input, then changes one of them: the SINR
  // vector (by one ulp, or only its sign of zero, or its length), the
  // margin alone, or the wire format alone.
  Rng rng(12);
  std::vector<double> sinr(13);
  for (double& s : sinr) s = rng.Uniform(-10.0, 25.0);
  double margin = 3.0;
  bool mode30 = false;
  CqiMeasurer measurer;
  auto check = [&](const char* what) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      const CqiMeasurer::Result& got = measurer.Measure(sinr, margin, mode30);
      const ReferenceCqi want = MeasureReference(sinr, margin, mode30);
      EXPECT_EQ(got.decoded.wideband_cqi, want.decoded.wideband_cqi) << what;
      EXPECT_EQ(got.decoded.subband_cqi, want.decoded.subband_cqi) << what;
      EXPECT_EQ(got.wideband_cqi, want.wideband_cqi) << what;
      EXPECT_EQ(got.wideband_sinr_db, want.wideband_sinr_db) << what;
    }
  };
  check("first");
  margin = 0.0;
  check("margin only");
  margin = -2.5;
  check("margin only, again");
  mode30 = true;
  check("wire format only");
  sinr[4] = std::nextafter(sinr[4], 100.0);
  check("one ulp");
  // Land one sub-band just below, then on, every CQI threshold.
  for (int cqi = 1; cqi <= 15; ++cqi) {
    const double t = CqiTable(cqi).sinr_threshold_db;
    sinr[6] = std::nextafter(t - margin, -100.0);
    check("just below a threshold");
    sinr[6] = t - margin;
    check("on a threshold");
  }
  sinr[2] = 0.0;
  check("+0");
  sinr[2] = -0.0;
  check("-0");
  mode30 = false;
  check("wire format off");
  sinr.resize(6);
  check("fewer sub-bands");
  for (int i = 0; i < 200; ++i) {
    sinr[static_cast<std::size_t>(i) % sinr.size()] = rng.Uniform(-15.0, 30.0);
    if (i % 7 == 0) margin = rng.Uniform(-3.0, 3.0);
    if (i % 11 == 0) mode30 = !mode30;
    check("random walk");
  }
}

}  // namespace
}  // namespace cellfi
