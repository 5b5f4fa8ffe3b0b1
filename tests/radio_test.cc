#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "cellfi/common/rng.h"
#include "cellfi/common/simd.h"
#include "cellfi/common/stats.h"
#include "cellfi/common/units.h"
#include "cellfi/radio/antenna.h"
#include "cellfi/radio/environment.h"
#include "cellfi/radio/fading.h"
#include "cellfi/radio/pathloss.h"

namespace cellfi {
namespace {

constexpr double kTvwsFreq = 600e6;

TEST(PathLossTest, FreeSpaceKnownValue) {
  FreeSpacePathLoss fs;
  // FSPL(dB) = 20 log10(d) + 20 log10(f) - 147.55; 1 km @ 600 MHz ~ 88.0 dB.
  EXPECT_NEAR(fs.LossDb(1000.0, kTvwsFreq), 88.0, 0.2);
}

TEST(PathLossTest, FreeSpaceSlope6dBPerOctave) {
  FreeSpacePathLoss fs;
  const double l1 = fs.LossDb(500.0, kTvwsFreq);
  const double l2 = fs.LossDb(1000.0, kTvwsFreq);
  EXPECT_NEAR(l2 - l1, 6.02, 0.05);
}

TEST(PathLossTest, MonotoneInDistance) {
  const HataUrbanPathLoss hata;
  const LogDistancePathLoss logd(3.5);
  const FreeSpacePathLoss fs;
  double prev_h = 0, prev_l = 0, prev_f = 0;
  for (double d = 10.0; d <= 3000.0; d *= 1.3) {
    const double h = hata.LossDb(d, kTvwsFreq);
    const double l = logd.LossDb(d, kTvwsFreq);
    const double f = fs.LossDb(d, kTvwsFreq);
    EXPECT_GT(h, prev_h);
    EXPECT_GE(l, prev_l);
    EXPECT_GT(f, prev_f);
    prev_h = h;
    prev_l = l;
    prev_f = f;
  }
}

TEST(PathLossTest, HataUrbanMatchesClosedForm) {
  // 600 MHz, hb = 15 m, hm = 1.5 m: L ~ 125.98 + 37.2 log10(d_km).
  HataUrbanPathLoss hata(15.0, 1.5, /*small_city=*/true);
  EXPECT_NEAR(hata.LossDb(1000.0, kTvwsFreq), 126.0, 0.5);
  EXPECT_NEAR(hata.LossDb(2000.0, kTvwsFreq) - hata.LossDb(1000.0, kTvwsFreq),
              37.2 * std::log10(2.0), 0.2);
}

TEST(PathLossTest, HataNeverBelowFreeSpace) {
  HataUrbanPathLoss hata;
  FreeSpacePathLoss fs;
  for (double d : {1.0, 5.0, 20.0, 100.0, 1000.0}) {
    EXPECT_GE(hata.LossDb(d, kTvwsFreq), fs.LossDb(d, kTvwsFreq) - 1e-9);
  }
}

TEST(PathLossTest, PaperRangeBudgetCloses) {
  // Fig. 1: 36 dBm EIRP reaches ~1.3 km urban with >= 1 Mbps. At 1.3 km the
  // received power must sit within a few dB of the 5 MHz noise floor.
  HataUrbanPathLoss hata(15.0, 1.5);
  const double rx_dbm = 36.0 - hata.LossDb(1300.0, kTvwsFreq);
  const double noise_dbm = NoisePowerDbm(4.5e6, 7.0);
  const double snr = rx_dbm - noise_dbm;
  EXPECT_GT(snr, 0.0);   // link still closes at the lowest MCS
  EXPECT_LT(snr, 20.0);  // but is clearly power-limited
}

TEST(AntennaTest, OmniUniform) {
  const Antenna a = Antenna::Omni(2.0);
  for (double b = -3.0; b <= 3.0; b += 0.5) EXPECT_DOUBLE_EQ(a.GainDbi(b), 2.0);
}

TEST(AntennaTest, SectorBoresightAndRolloff) {
  const double beam = 120.0 * M_PI / 180.0;
  const Antenna a = Antenna::Sector(6.0, 0.0, beam);
  EXPECT_DOUBLE_EQ(a.GainDbi(0.0), 6.0);
  // At the 3 dB half-beamwidth the pattern is 12*(0.5*beam / (0.5*beam))^2
  // = 12 dB down in the 3GPP parabolic form evaluated at the edge.
  EXPECT_NEAR(a.GainDbi(beam / 2.0), 6.0 - 12.0, 1e-9);
  // Behind the antenna the floor applies.
  EXPECT_NEAR(a.GainDbi(M_PI), 6.0 - 20.0, 1e-9);
}

TEST(AntennaTest, SectorSymmetric) {
  const Antenna a = Antenna::Sector(7.0, M_PI / 3.0, 2.0);
  EXPECT_NEAR(a.GainDbi(M_PI / 3.0 + 0.4), a.GainDbi(M_PI / 3.0 - 0.4), 1e-9);
}

TEST(FadingTest, ShadowingSymmetricAndStable) {
  ShadowingField f(99, 6.0);
  EXPECT_DOUBLE_EQ(f.ShadowDb(3, 8), f.ShadowDb(8, 3));
  EXPECT_DOUBLE_EQ(f.ShadowDb(3, 8), f.ShadowDb(3, 8));
  EXPECT_NE(f.ShadowDb(3, 8), f.ShadowDb(3, 9));
}

TEST(FadingTest, ShadowingStatisticsMatchSigma) {
  ShadowingField f(7, 6.0);
  Summary s;
  for (std::uint32_t i = 0; i < 2000; ++i) s.Add(f.ShadowDb(i, i + 10000));
  EXPECT_NEAR(s.mean(), 0.0, 0.5);
  EXPECT_NEAR(s.stddev(), 6.0, 0.5);
}

TEST(FadingTest, RayleighPowerMeanIsOne) {
  FadingProcess f(3);
  Summary s;
  for (std::uint32_t i = 0; i < 5000; ++i) s.Add(f.PowerGain(1, 2, i, 0));
  EXPECT_NEAR(s.mean(), 1.0, 0.05);
}

TEST(FadingTest, ConstantWithinCoherenceBlock) {
  FadingProcess f(3, 50 * kMillisecond);
  const double g1 = f.PowerGain(1, 2, 5, 0);
  const double g2 = f.PowerGain(1, 2, 5, 49 * kMillisecond);
  const double g3 = f.PowerGain(1, 2, 5, 51 * kMillisecond);
  EXPECT_DOUBLE_EQ(g1, g2);
  EXPECT_NE(g1, g3);
}

TEST(FadingTest, IndependentAcrossSubchannels) {
  FadingProcess f(3);
  EXPECT_NE(f.PowerGain(1, 2, 0, 0), f.PowerGain(1, 2, 1, 0));
}

class EnvironmentTest : public ::testing::Test {
 protected:
  EnvironmentTest() : env_(pathloss_, MakeConfig()) {
    ap_ = env_.AddNode({.position = {0, 0},
                        .antenna = Antenna::Omni(6.0),
                        .tx_power_dbm = 30.0});
    ue_near_ = env_.AddNode({.position = {100, 0}, .tx_power_dbm = 20.0});
    ue_far_ = env_.AddNode({.position = {1200, 0}, .tx_power_dbm = 20.0});
    interferer_ = env_.AddNode({.position = {300, 300}, .tx_power_dbm = 30.0});
  }

  static RadioEnvironmentConfig MakeConfig() {
    RadioEnvironmentConfig c;
    c.carrier_freq_hz = kTvwsFreq;
    c.shadowing_sigma_db = 0.0;  // deterministic for assertions
    c.enable_fading = false;
    return c;
  }

  FreeSpacePathLoss pathloss_;
  RadioEnvironment env_;
  RadioNodeId ap_ = 0, ue_near_ = 0, ue_far_ = 0, interferer_ = 0;
};

// Each direction of a link is computed in its own receiver's row, so the
// two directions must agree bit for bit: distance, path loss and shadowing
// are symmetric and the two antenna terms only swap operands of one `+`.
// Two fresh environments (shadowing on, a sector antenna among omnis)
// query every pair in opposite orders, so neither direction is ever served
// from the other's computation.
TEST_F(EnvironmentTest, LinkGainSymmetric) {
  EXPECT_EQ(env_.LinkGainDb(ap_, ue_far_), env_.LinkGainDb(ue_far_, ap_));

  const HataUrbanPathLoss hata(15.0, 1.5);
  RadioEnvironmentConfig cfg = MakeConfig();
  cfg.shadowing_sigma_db = 6.0;
  cfg.seed = 21;
  RadioEnvironment forward(hata, cfg);
  RadioEnvironment backward(hata, cfg);
  const std::vector<RadioNode> nodes = {
      {.position = {0, 0}, .antenna = Antenna::Omni(6.0), .tx_power_dbm = 30.0},
      {.position = {350, -120}, .antenna = Antenna::Sector(14.0, 0.7, 1.1), .tx_power_dbm = 30.0},
      {.position = {100, 0}},
      {.position = {1200, 37.5}},
      {.position = {-431.25, 918.0}, .antenna = Antenna::Omni(2.0)},
  };
  for (const RadioNode& node : nodes) {
    forward.AddNode(node);
    backward.AddNode(node);
  }
  const auto n = static_cast<RadioNodeId>(nodes.size());
  for (RadioNodeId a = 0; a < n; ++a) {
    for (RadioNodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      const double ab = forward.LinkGainDb(a, b);
      EXPECT_EQ(forward.LinkGainDb(b, a), ab) << a << " <-> " << b;
      EXPECT_EQ(backward.LinkGainDb(b, a), ab) << a << " <-> " << b;
      EXPECT_EQ(backward.LinkGainDb(a, b), ab) << a << " <-> " << b;
      EXPECT_EQ(forward.MeanRxPowerMw(a, b), DbmToMw(nodes[a].tx_power_dbm + ab));
    }
  }
}

TEST_F(EnvironmentTest, NearStrongerThanFar) {
  EXPECT_GT(env_.MeanRxPowerDbm(ap_, ue_near_), env_.MeanRxPowerDbm(ap_, ue_far_));
}

TEST_F(EnvironmentTest, SnrDropsWithInterference) {
  const double snr = env_.SinrDb(ap_, ue_near_, 0, 0, {}, 4.5e6);
  const double sinr =
      env_.SinrDb(ap_, ue_near_, 0, 0, {{.node = interferer_, .power_scale = 1.0}}, 4.5e6);
  EXPECT_GT(snr, sinr);
}

TEST_F(EnvironmentTest, PartialPowerScaleInterferesLess) {
  const double full =
      env_.SinrDb(ap_, ue_near_, 0, 0, {{.node = interferer_, .power_scale = 1.0}}, 4.5e6);
  const double partial =
      env_.SinrDb(ap_, ue_near_, 0, 0, {{.node = interferer_, .power_scale = 0.3}}, 4.5e6);
  EXPECT_GT(partial, full);
}

TEST_F(EnvironmentTest, InterferenceFromSelfOrSignalIgnored) {
  const double base = env_.SinrDb(ap_, ue_near_, 0, 0, {}, 4.5e6);
  const double with_self = env_.SinrDb(
      ap_, ue_near_, 0, 0,
      {{.node = ap_, .power_scale = 1.0}, {.node = ue_near_, .power_scale = 1.0}}, 4.5e6);
  EXPECT_DOUBLE_EQ(base, with_self);
}

TEST_F(EnvironmentTest, MeanSnrMatchesManualBudget) {
  const double expected = 30.0 + 6.0 - pathloss_.LossDb(100.0, kTvwsFreq) -
                          NoisePowerDbm(4.5e6, 7.0);
  EXPECT_NEAR(env_.MeanSnrDb(ap_, ue_near_, 4.5e6), expected, 1e-9);
}

// Regression: SinrDb caches per-receiver linear rx-power rows (and
// MeanRxPowerMw caches link gains). MoveNode must invalidate every cached
// value involving the moved node — both as signal source and interferer —
// or stale powers survive the move.
TEST_F(EnvironmentTest, MoveNodeInvalidatesSinrCaches) {
  const std::vector<ActiveTransmitter> interferers{
      {.node = interferer_, .power_scale = 1.0}};
  // Populate the caches at the original positions.
  (void)env_.SinrDb(ap_, ue_near_, 0, 0, interferers, 4.5e6);
  (void)env_.MeanRxPowerMw(ap_, ue_near_);

  // Moving the signal source must change the cached signal power.
  env_.MoveNode(ap_, {500, 0});
  RadioEnvironment fresh(pathloss_, MakeConfig());
  const RadioNodeId ap2 = fresh.AddNode({.position = {500, 0},
                                         .antenna = Antenna::Omni(6.0),
                                         .tx_power_dbm = 30.0});
  const RadioNodeId near2 = fresh.AddNode({.position = {100, 0}, .tx_power_dbm = 20.0});
  (void)fresh.AddNode({.position = {1200, 0}, .tx_power_dbm = 20.0});
  const RadioNodeId intf2 = fresh.AddNode({.position = {300, 300}, .tx_power_dbm = 30.0});
  const std::vector<ActiveTransmitter> interferers2{{.node = intf2, .power_scale = 1.0}};
  EXPECT_DOUBLE_EQ(env_.SinrDb(ap_, ue_near_, 0, 0, interferers, 4.5e6),
                   fresh.SinrDb(ap2, near2, 0, 0, interferers2, 4.5e6));
  EXPECT_DOUBLE_EQ(env_.MeanRxPowerMw(ap_, ue_near_),
                   fresh.MeanRxPowerMw(ap2, near2));

  // Moving an interferer must change the cached interference power too.
  (void)env_.SinrDb(ap_, ue_near_, 0, 0, interferers, 4.5e6);
  env_.MoveNode(interferer_, {50, 50});
  fresh.MoveNode(intf2, {50, 50});
  EXPECT_DOUBLE_EQ(env_.SinrDb(ap_, ue_near_, 0, 0, interferers, 4.5e6),
                   fresh.SinrDb(ap2, near2, 0, 0, interferers2, 4.5e6));

  // And moving the receiver invalidates its row (signal + noise memo keyed
  // by bandwidth stays valid; only geometry-dependent values change).
  env_.MoveNode(ue_near_, {700, 100});
  fresh.MoveNode(near2, {700, 100});
  EXPECT_DOUBLE_EQ(env_.SinrDb(ap_, ue_near_, 0, 0, interferers, 4.5e6),
                   fresh.SinrDb(ap2, near2, 0, 0, interferers2, 4.5e6));
}

// A receiver's link row is sized on its first query; a node added after
// that must extend the row, not read past it, as signal source and as
// interferer alike.
TEST_F(EnvironmentTest, AddNodeAfterQueryExtendsRows) {
  (void)env_.SinrDb(ap_, ue_near_, 0, 0, {{.node = interferer_, .power_scale = 1.0}}, 4.5e6);
  RadioEnvironment fresh(pathloss_, MakeConfig());
  for (RadioNodeId id = 0; id < env_.node_count(); ++id) fresh.AddNode(env_.node(id));
  const RadioNode late{.position = {-250, 80}, .tx_power_dbm = 27.0};
  const RadioNodeId added = env_.AddNode(late);
  ASSERT_EQ(fresh.AddNode(late), added);
  const std::vector<ActiveTransmitter> interferers{{.node = interferer_, .power_scale = 1.0},
                                                   {.node = added, .power_scale = 0.5}};
  EXPECT_EQ(env_.SinrDb(ap_, ue_near_, 0, 0, interferers, 4.5e6),
            fresh.SinrDb(ap_, ue_near_, 0, 0, interferers, 4.5e6));
  EXPECT_EQ(env_.MeanRxPowerMw(added, ue_near_), fresh.MeanRxPowerMw(added, ue_near_));
  EXPECT_EQ(env_.LinkGainDb(added, ue_near_), fresh.LinkGainDb(added, ue_near_));
}

// NoiseMw keeps a two-slot MRU memo per receiver: MAC layers alternate
// between subchannel and full-band noise at the same receiver, and the
// alternation must hit the memo without thrash (and, above all, stay
// exact — each value must equal the closed-form conversion every time).
TEST_F(EnvironmentTest, NoiseMwMemoSurvivesAlternatingBandwidths) {
  const double sub = DbmToMw(NoisePowerDbm(360e3, 7.0));
  const double full = DbmToMw(NoisePowerDbm(4.5e6, 7.0));
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(env_.NoiseMw(ue_near_, 360e3), sub) << "iter " << i;
    EXPECT_DOUBLE_EQ(env_.NoiseMw(ue_near_, 4.5e6), full) << "iter " << i;
  }
  // A third bandwidth evicts the LRU slot but never corrupts the values.
  const double prach = DbmToMw(NoisePowerDbm(839 * 1250.0, 7.0));
  EXPECT_DOUBLE_EQ(env_.NoiseMw(ue_near_, 839 * 1250.0), prach);
  EXPECT_DOUBLE_EQ(env_.NoiseMw(ue_near_, 360e3), sub);
  EXPECT_DOUBLE_EQ(env_.NoiseMw(ue_near_, 4.5e6), full);
  // Per-receiver slots are independent.
  EXPECT_DOUBLE_EQ(env_.NoiseMw(ue_far_, 360e3), sub);
  // AddNode resizes the memo vector; values stay correct afterwards.
  (void)env_.AddNode({.position = {900, 900}});
  EXPECT_DOUBLE_EQ(env_.NoiseMw(ue_near_, 360e3), sub);
}

// Test-only oracle for the fading path: SinrDb recomputed with a fresh
// FadingProcess::PowerGain for every term (no coherence-block memo), in
// the same blocked lane order, so the memoized result must match bit for
// bit.
double DirectFadingSinrDb(const RadioEnvironment& env, RadioNodeId tx, RadioNodeId rx,
                          std::uint32_t subchannel, SimTime now,
                          const std::vector<ActiveTransmitter>& interferers,
                          double bandwidth_hz, double signal_scale) {
  const FadingProcess& fading = env.fading();
  const double signal_mw = env.MeanRxPowerMw(tx, rx) * signal_scale *
                           fading.PowerGain(tx, rx, subchannel, now);
  double lanes[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  std::size_t m = 0;
  for (const ActiveTransmitter& it : interferers) {
    if (it.node == tx || it.node == rx || it.power_scale <= 0.0) continue;
    lanes[m & 7] += env.MeanRxPowerMw(it.node, rx) * it.power_scale *
                    fading.PowerGain(it.node, rx, subchannel, now);
    ++m;
  }
  const double denom_mw =
      DbmToMw(env.NoiseDbm(rx, bandwidth_hz)) + simd::ReduceLanes8(lanes);
  return LinearToDb(signal_mw / denom_mw);
}

// The per-receiver coherence-block fading memo is invisible: SinrDb
// equals direct PowerGain arithmetic across block boundaries
// (forward and backward in time), table growth, AddNode mid-run and
// MoveNode, for Rayleigh and Rician fading.
TEST(FadingMemoTest, MatchesDirectPowerGainArithmetic) {
  const FreeSpacePathLoss pathloss;
  for (const double k : {0.0, 6.0}) {
    RadioEnvironmentConfig cfg;
    cfg.carrier_freq_hz = kTvwsFreq;
    cfg.rician_k = k;
    RadioEnvironment env(pathloss, cfg);
    Rng rng(k > 0.0 ? 11 : 7);
    std::vector<RadioNodeId> nodes;
    auto add_node = [&] {
      nodes.push_back(env.AddNode({.position = {rng.Uniform(0, 2000), rng.Uniform(0, 2000)},
                                   .tx_power_dbm = 30.0}));
    };
    for (int i = 0; i < 12; ++i) add_node();
    const SimTime coherence = env.fading().coherence_time();
    // Times straddling block edges, including a step back to an old block.
    std::vector<SimTime> times;
    for (SimTime t = 0; t < 3 * coherence; t += 7 * kMillisecond) times.push_back(t);
    for (const SimTime t : {coherence - 1, coherence, 2 * coherence - 1, SimTime{0},
                            2 * coherence, 5 * coherence + 3}) {
      times.push_back(t);
    }
    for (std::size_t step = 0; step < times.size(); ++step) {
      const SimTime now = times[step];
      if (step == 10) add_node();  // new interferer and receiver mid-run
      if (step == 14) env.MoveNode(nodes[1], {1500, 200});
      if (step == 17) env.MoveNode(nodes[0], {100, 1900});
      for (int q = 0; q < 40; ++q) {
        const auto pick = [&] {
          return nodes[static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1))];
        };
        const RadioNodeId rx = q % 3 == 0 ? nodes[0] : pick();
        RadioNodeId tx = pick();
        while (tx == rx) tx = pick();
        std::vector<ActiveTransmitter> interferers;
        for (const RadioNodeId node : nodes) {
          if (rng.Bernoulli(0.6)) interferers.push_back({node, rng.Uniform(0.0, 1.0)});
        }
        const auto subchannel = static_cast<std::uint32_t>(rng.UniformInt(0, 12));
        ASSERT_EQ(env.SinrDb(tx, rx, subchannel, now, interferers, 360e3, 1.0 / 13.0),
                  DirectFadingSinrDb(env, tx, rx, subchannel, now, interferers, 360e3,
                                     1.0 / 13.0))
            << "k " << k << " step " << step << " query " << q;
      }
    }
  }
}

}  // namespace
}  // namespace cellfi
