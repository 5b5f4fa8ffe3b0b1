// The per-subframe interference engine's determinism contract (DESIGN.md
// §12): with culling off, every path through InterferenceMap must be
// BIT-identical to the legacy per-link summation — same doubles, not just
// close — across fading on/off, cell activity toggles and mobility. The
// negligible-interferer cull is opt-in and bounded: dropping terms >= 30 dB
// below the noise floor moves any SINR by less than 0.01 dB.
#include "cellfi/radio/interference.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "cellfi/lte/network.h"
#include "cellfi/phy/cqi_mcs.h"
#include "cellfi/radio/pathloss.h"
#include "cellfi/scenario/harness.h"

namespace cellfi {
namespace {

RadioEnvironmentConfig EnvConfig(bool fading, double floor_db = 0.0) {
  RadioEnvironmentConfig c;
  c.carrier_freq_hz = 600e6;
  c.shadowing_sigma_db = 4.0;
  c.enable_fading = fading;
  c.interference_floor_db = floor_db;
  c.seed = 21;
  return c;
}

/// A receiver, a signal source and `n` interferers scattered over a 2 km
/// square, full-band flat PSD on 13 subchannels.
struct World {
  explicit World(const RadioEnvironmentConfig& cfg) : env(pathloss, cfg) {
    Rng rng(17);
    rx = env.AddNode({.position = {0, 0}});
    tx = env.AddNode({.position = {300, 100}, .tx_power_dbm = 30});
    for (int i = 0; i < 12; ++i) {
      others.push_back(env.AddNode({.position = {rng.Uniform(-2000, 2000),
                                                 rng.Uniform(-2000, 2000)},
                                    .tx_power_dbm = 30}));
    }
  }
  HataUrbanPathLoss pathloss;
  RadioEnvironment env;
  RadioNodeId rx = 0;
  RadioNodeId tx = 0;
  std::vector<RadioNodeId> others;
};

class InterferenceMapTest : public ::testing::TestWithParam<bool> {};

TEST_P(InterferenceMapTest, MatchesPerLinkSinrExactly) {
  const bool fading = GetParam();
  World w(EnvConfig(fading));
  InterferenceMap imap(w.env);
  imap.BeginEpoch(13, 360e3);
  // The signal source itself is in the lists (as in a real subframe) and
  // must be excluded at query time exactly as env::SinrDb does.
  std::vector<ActiveTransmitter> legacy;
  legacy.push_back({w.tx, 1.0 / 13.0});
  for (RadioNodeId n : w.others) legacy.push_back({n, 1.0 / 13.0});
  for (int s = 0; s < 13; ++s) {
    for (const ActiveTransmitter& t : legacy) imap.AddTransmitter(s, t.node, t.power_scale);
  }
  for (SimTime now = 0; now <= 100 * kMillisecond; now += 20 * kMillisecond) {
    for (int s = 0; s < 13; ++s) {
      const double engine = imap.SinrDb(w.tx, w.rx, s, now, 1.0 / 13.0);
      const double perlink =
          w.env.SinrDb(w.tx, w.rx, static_cast<std::uint32_t>(s), now, legacy, 360e3,
                       1.0 / 13.0);
      EXPECT_EQ(engine, perlink) << "fading=" << fading << " s=" << s << " t=" << now;
    }
  }
  // All 13 lists are identical -> one aggregation group.
  EXPECT_EQ(imap.num_groups(), 1);
  EXPECT_EQ(imap.culled_total(), 0u);
}

TEST_P(InterferenceMapTest, DistinctListsPerSubchannelStayExact) {
  const bool fading = GetParam();
  World w(EnvConfig(fading));
  InterferenceMap imap(w.env);
  imap.BeginEpoch(13, 360e3);
  // Interferer i transmits only on subchannels s >= i. With 12 interferers
  // that makes subchannels 0..11 pairwise distinct while 11 and 12 share a
  // list — 12 aggregation groups, exercising dedup and distinctness both.
  std::vector<std::vector<ActiveTransmitter>> legacy(13);
  for (int s = 0; s < 13; ++s) {
    for (std::size_t i = 0; i <= static_cast<std::size_t>(s) && i < w.others.size(); ++i) {
      imap.AddTransmitter(s, w.others[i], 1.0 / 13.0);
      legacy[static_cast<std::size_t>(s)].push_back({w.others[i], 1.0 / 13.0});
    }
  }
  for (int s = 0; s < 13; ++s) {
    const double engine = imap.SinrDb(w.tx, w.rx, s, 5 * kMillisecond, 1.0 / 13.0);
    const double perlink =
        w.env.SinrDb(w.tx, w.rx, static_cast<std::uint32_t>(s), 5 * kMillisecond,
                     legacy[static_cast<std::size_t>(s)], 360e3, 1.0 / 13.0);
    EXPECT_EQ(engine, perlink) << "fading=" << fading << " s=" << s;
  }
  EXPECT_EQ(imap.num_groups(), 12);
}

INSTANTIATE_TEST_SUITE_P(FadingOnOff, InterferenceMapTest, ::testing::Bool());

// ---------------------------------------------------------------------------
// SINR memo (DESIGN.md §20): every answer of a map that has memoized
// earlier epochs must equal an uncached per-link computation on a second,
// identical environment that shares no cache with the map's. The script
// changes every input of the memo key in turn.
// ---------------------------------------------------------------------------

class SinrMemoOracle {
 public:
  explicit SinrMemoOracle(bool fading)
      : fading_(fading), map_world_(EnvConfig(fading)), oracle_world_(EnvConfig(fading)),
        imap_(map_world_.env) {
    cells_.push_back(map_world_.tx);
    for (RadioNodeId n : map_world_.others) cells_.push_back(n);
    Rng rng(29);
    for (int i = 0; i < 4; ++i) {
      ues_.push_back(AddNode({.position = {rng.Uniform(-1000, 1000), rng.Uniform(-1000, 1000)},
                              .tx_power_dbm = 20}));
    }
  }

  RadioNodeId AddNode(const RadioNode& node) {
    const RadioNodeId id = map_world_.env.AddNode(node);
    EXPECT_EQ(oracle_world_.env.AddNode(node), id);
    return id;
  }
  void MoveNode(RadioNodeId id, Point p) {
    map_world_.env.MoveNode(id, p);
    oracle_world_.env.MoveNode(id, p);
  }

  /// One downlink-style epoch: every cell on every subchannel at 1/13 of
  /// its power, with `edit` applied to each subchannel's list first.
  void DownlinkEpoch(double bandwidth_hz,
                     const std::function<void(int, std::vector<ActiveTransmitter>&)>& edit =
                         nullptr) {
    imap_.BeginEpoch(13, bandwidth_hz);
    bandwidth_hz_ = bandwidth_hz;
    for (int s = 0; s < 13; ++s) {
      std::vector<ActiveTransmitter> list;
      for (RadioNodeId c : cells_) list.push_back({c, 1.0 / 13.0});
      if (edit) edit(s, list);
      for (const ActiveTransmitter& t : list) imap_.AddTransmitter(s, t.node, t.power_scale);
    }
    imap_.Seal();
  }

  /// One uplink-style epoch: UE i transmits on subchannels s with
  /// s % (i + 1) == 0, its power spread over its grant.
  void UplinkEpoch() {
    imap_.BeginEpoch(13, 360e3);
    bandwidth_hz_ = 360e3;
    for (std::size_t i = 0; i < ues_.size(); ++i) {
      const int grant = (13 + static_cast<int>(i)) / static_cast<int>(i + 1);
      for (int s = 0; s < 13; s += static_cast<int>(i + 1)) {
        imap_.AddTransmitter(s, ues_[i], 1.0 / grant);
      }
    }
    imap_.Seal();
  }

  /// Query every subchannel twice (a miss, then a hit) and compare both
  /// with the uncached oracle.
  void Check(RadioNodeId tx, RadioNodeId rx, SimTime now, double scale,
             const std::string& what) {
    for (int s = 0; s < 13; ++s) {
      const double oracle =
          oracle_world_.env.SinrDb(tx, rx, static_cast<std::uint32_t>(s), now,
                                   imap_.transmitters(s), bandwidth_hz_, scale);
      for (int pass = 0; pass < 2; ++pass) {
        EXPECT_EQ(imap_.SinrDb(tx, rx, s, now, scale), oracle)
            << what << " fading=" << fading_ << " s=" << s << " pass=" << pass;
      }
    }
  }

  bool fading_;
  World map_world_;
  World oracle_world_;
  InterferenceMap imap_;
  double bandwidth_hz_ = 360e3;
  std::vector<RadioNodeId> cells_;
  std::vector<RadioNodeId> ues_;
};

class InterferenceMapMemoTest : public ::testing::TestWithParam<bool> {};

TEST_P(InterferenceMapMemoTest, MatchesUncachedOracleExactly) {
  SinrMemoOracle o(GetParam());
  const RadioNodeId tx = o.map_world_.tx;
  const RadioNodeId rx = o.map_world_.rx;
  const SimTime t = 10 * kMillisecond;
  constexpr double kDl = 1.0 / 13.0;

  o.DownlinkEpoch(360e3);
  o.Check(tx, rx, t, 1.0 / 4.0, "first epoch");
  o.Check(tx, rx, t, kDl, "signal_scale change");
  o.Check(o.cells_[3], o.ues_[0], t, kDl, "second receiver");
  const auto after_first = o.imap_.sinr_memo_stats();
  EXPECT_GT(after_first.hits, 0u);
  EXPECT_GT(after_first.misses, 0u);

  o.DownlinkEpoch(360e3);
  o.Check(tx, rx, t, kDl, "repeated list");
  // Every subchannel hit twice: the repeated list kept its id.
  EXPECT_EQ(o.imap_.sinr_memo_stats().hits, after_first.hits + 26);

  // Alternating uplink-style and downlink-style epochs.
  for (int round = 0; round < 2; ++round) {
    o.UplinkEpoch();
    o.Check(o.ues_[1], tx, t, 1.0 / 7.0, "uplink epoch");
    o.Check(o.ues_[2], o.cells_[5], t, 1.0 / 5.0, "uplink epoch, other cell");
    o.DownlinkEpoch(360e3);
    o.Check(tx, rx, t, kDl, "downlink after uplink");
  }

  // One transmitter added, removed, or with a changed power_scale.
  o.DownlinkEpoch(360e3, [&](int s, std::vector<ActiveTransmitter>& list) {
    if (s < 4) list.push_back({o.ues_[3], kDl});
  });
  o.Check(tx, rx, t, kDl, "transmitter added");
  o.DownlinkEpoch(360e3, [&](int s, std::vector<ActiveTransmitter>& list) {
    if (s % 2 == 0) list.erase(list.begin() + 4);
  });
  o.Check(tx, rx, t, kDl, "transmitter removed");
  o.DownlinkEpoch(360e3, [&](int s, std::vector<ActiveTransmitter>& list) {
    if (s > 6) list[5].power_scale = 2.0 / 13.0;
  });
  o.Check(tx, rx, t, kDl, "power_scale changed");

  // Fading-block edges (50 ms blocks), including a step back in time.
  o.DownlinkEpoch(360e3);
  for (SimTime now : {49 * kMillisecond, 50 * kMillisecond - 1, 50 * kMillisecond,
                      99 * kMillisecond, 100 * kMillisecond, 20 * kMillisecond,
                      20 * kMillisecond, 150 * kMillisecond}) {
    o.Check(tx, rx, now, kDl, "block edge t=" + std::to_string(now));
  }

  // Mobility: an interferer, the receiver and the signal source move.
  o.MoveNode(o.cells_[2], {150, -80});
  o.Check(tx, rx, t, kDl, "interferer moved");
  o.MoveNode(rx, {60, 40});
  o.Check(tx, rx, t, kDl, "receiver moved");
  o.MoveNode(tx, {-250, 30});
  o.Check(tx, rx, t, kDl, "signal source moved");

  // AddNode mid-run: first unused, then transmitting in a new epoch.
  const RadioNodeId fresh = o.AddNode({.position = {120, 90}, .tx_power_dbm = 30});
  o.Check(tx, rx, t, kDl, "node added");
  o.Check(tx, fresh, t, kDl, "new receiver");
  o.cells_.push_back(fresh);
  o.DownlinkEpoch(360e3);
  o.Check(tx, rx, t, kDl, "new node transmitting");

  // Bandwidth change between epochs with the same lists.
  o.DownlinkEpoch(180e3);
  o.Check(tx, rx, t, kDl, "bandwidth 180 kHz");
  o.DownlinkEpoch(360e3);
  o.Check(tx, rx, t, kDl, "bandwidth back to 360 kHz");

  // Handover: a new signal source at the same receiver, and back.
  o.Check(o.cells_[1], rx, t, kDl, "handover");
  o.Check(tx, rx, t, kDl, "handover back");

  // Intern-table overflow: more distinct lists than it holds, then the
  // original list again. (tx, rx) is queried only every kInternCapacity
  // epochs, so its slots would go stale if emptying the table let an old
  // id come back for new content.
  const int cap = static_cast<int>(InterferenceMap::kInternCapacity);
  for (int i = 0; i < cap + 44; ++i) {
    o.DownlinkEpoch(360e3, [&](int, std::vector<ActiveTransmitter>& list) {
      list[7].power_scale = (1.0 + i) / 1000.0;
    });
    o.Check(o.cells_[3], o.ues_[0], t, kDl, "overflow epoch " + std::to_string(i));
    if (i % cap == 0) o.Check(tx, rx, t, kDl, "overflow epoch " + std::to_string(i));
  }
  o.DownlinkEpoch(360e3);
  o.Check(tx, rx, t, kDl, "after overflow");
  EXPECT_EQ(o.imap_.culled_total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(FadingOnOff, InterferenceMapMemoTest, ::testing::Bool());

TEST(InterferenceMapCullTest, DropsBelowFloorInterferersWithinEpsilon) {
  // Two clusters 50 km apart under log-distance n=3.5: cross-cluster rx
  // power lands ~50 dB below the subchannel noise floor, in-cluster power
  // far above it. A 30 dB floor culls exactly the far cluster.
  LogDistancePathLoss pathloss(3.5);
  RadioEnvironmentConfig cfg = EnvConfig(/*fading=*/false, /*floor_db=*/30.0);
  RadioEnvironment env(pathloss, cfg);
  RadioEnvironmentConfig nocull_cfg = EnvConfig(/*fading=*/false);
  RadioEnvironment ref_env(pathloss, nocull_cfg);

  std::vector<ActiveTransmitter> all;
  RadioNodeId rx = 0, tx = 0;
  for (RadioEnvironment* e : {&env, &ref_env}) {
    rx = e->AddNode({.position = {0, 0}});
    tx = e->AddNode({.position = {200, 0}, .tx_power_dbm = 30});
    all.clear();
    all.push_back({e->AddNode({.position = {-300, 100}, .tx_power_dbm = 30}), 1.0 / 13.0});
    all.push_back({e->AddNode({.position = {100, -250}, .tx_power_dbm = 30}), 1.0 / 13.0});
    for (int i = 0; i < 4; ++i) {  // far cluster: negligible at rx
      all.push_back({e->AddNode({.position = {50000.0 + 300.0 * i, 50000.0},
                                 .tx_power_dbm = 30}),
                     1.0 / 13.0});
    }
  }

  InterferenceMap imap(env);
  imap.BeginEpoch(13, 360e3);
  for (int s = 0; s < 13; ++s) {
    for (const ActiveTransmitter& t : all) imap.AddTransmitter(s, t.node, t.power_scale);
  }
  const double culled_sinr = imap.SinrDb(tx, rx, 0, 0, 1.0 / 13.0);
  const double exact_sinr =
      ref_env.SinrDb(tx, rx, 0, 0, all, 360e3, 1.0 / 13.0);
  // 4 far interferers culled once (one aggregation group shared by all 13
  // subchannels).
  EXPECT_EQ(imap.culled_this_epoch(), 4u);
  EXPECT_EQ(imap.culled_total(), 4u);
  // Epsilon contract: each culled term is >= 30 dB below the noise floor,
  // so the denominator shrinks by < 13 * 10^-3 relative — under 0.01 dB
  // for any realistic list (documented in DESIGN.md §12).
  EXPECT_NE(culled_sinr, exact_sinr);  // something was actually dropped
  EXPECT_NEAR(culled_sinr, exact_sinr, 0.01);
}

// ---------------------------------------------------------------------------
// Network-level bit-identity: two LteNetworks over identically seeded
// environments, one on the engine and one on the legacy path, stepped in
// lockstep through activity toggles and mobility.
// ---------------------------------------------------------------------------

class DualNetwork {
 public:
  explicit DualNetwork(bool engine)
      : env_(pathloss_, EnvConfig(/*fading=*/false)), net_(sim_, env_, NetConfig(engine)) {}

  static lte::LteNetworkConfig NetConfig(bool engine) {
    lte::LteNetworkConfig c;
    c.use_interference_engine = engine;
    c.seed = 11;
    return c;
  }

  lte::CellId AddCellAt(Point p) {
    const RadioNodeId r = env_.AddNode({.position = p, .tx_power_dbm = 30.0});
    lte::LteMacConfig mac;
    mac.bandwidth = LteBandwidth::k5MHz;
    mac.tdd_config = 4;
    return net_.AddCell(mac, r);
  }

  lte::UeId AddUeAt(Point p) {
    ue_radios_.push_back(env_.AddNode({.position = p, .tx_power_dbm = 20.0}));
    return net_.AddUe(ue_radios_.back());
  }

  HataUrbanPathLoss pathloss_;
  Simulator sim_;
  RadioEnvironment env_;
  lte::LteNetwork net_;
  std::vector<RadioNodeId> ue_radios_;
};

TEST(InterferenceEngineNetworkTest, LockstepBitIdentityAcrossActivityAndMobility) {
  DualNetwork engine(true);
  DualNetwork legacy(false);
  for (DualNetwork* d : {&engine, &legacy}) {
    d->AddCellAt({0, 0});
    d->AddCellAt({900, 0});
    d->AddCellAt({0, 900});
    for (int c = 0; c < 3; ++c) {
      for (int u = 0; u < 2; ++u) {
        d->AddUeAt({100.0 + 400.0 * c, 50.0 + 300.0 * u});
      }
    }
    d->net_.Start();
    d->sim_.RunUntil(300 * kMillisecond);
    for (lte::UeId u = 0; u < 6; ++u) d->net_.OfferDownlink(u, 8 << 20);
    d->sim_.RunUntil(500 * kMillisecond);
  }

  auto expect_identical = [&](const char* when) {
    for (lte::UeId u = 0; u < 6; ++u) {
      ASSERT_EQ(engine.net_.ue(u).serving, legacy.net_.ue(u).serving) << when;
      const std::vector<double> a = engine.net_.MeasureDownlinkSinr(u);
      const std::vector<double> b = legacy.net_.MeasureDownlinkSinr(u);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t s = 0; s < a.size(); ++s) {
        EXPECT_EQ(a[s], b[s]) << when << " ue=" << u << " s=" << s;
      }
    }
    EXPECT_EQ(engine.net_.total_dl_bits(), legacy.net_.total_dl_bits()) << when;
  };
  expect_identical("steady state");

  // Activity toggle: the engine must invalidate its map and CRS cache.
  for (DualNetwork* d : {&engine, &legacy}) d->net_.SetCellActive(1, false);
  expect_identical("after deactivate");
  for (DualNetwork* d : {&engine, &legacy}) {
    d->net_.SetCellActive(1, true);
    d->sim_.RunUntil(700 * kMillisecond);
  }
  expect_identical("after reactivate + run");

  // Mobility: position_epoch must invalidate the aggregate rows.
  for (DualNetwork* d : {&engine, &legacy}) {
    d->env_.MoveNode(d->ue_radios_[0], {700, 120});
    d->sim_.RunUntil(900 * kMillisecond);
  }
  expect_identical("after mobility + run");
  EXPECT_EQ(engine.net_.interference_culled_total(), 0u);
}

TEST(InterferenceEngineNetworkTest, SinrMemoHitsInSteadyFadingScenario) {
  // 14 backlogged cells with fading on: within a 50 ms block, a receiver's
  // sub-band SINRs repeat until some transmit pattern changes, so a memo
  // whose key is right but never hits would show here as a low rate.
  HataUrbanPathLoss pathloss;
  RadioEnvironment env(pathloss, EnvConfig(/*fading=*/true));
  Simulator sim;
  lte::LteNetwork net(sim, env, DualNetwork::NetConfig(/*engine=*/true));
  for (int c = 0; c < 14; ++c) {
    const Point site{600.0 * (c % 7), 600.0 * (c / 7)};
    lte::LteMacConfig mac;
    mac.bandwidth = LteBandwidth::k5MHz;
    mac.tdd_config = 4;
    net.AddCell(mac, env.AddNode({.position = site, .tx_power_dbm = 30.0}));
    for (int u = 0; u < 3; ++u) {
      net.AddUe(env.AddNode({.position = {site.x + 60.0 * (u + 1), site.y + 40.0 * u},
                             .tx_power_dbm = 20.0}));
    }
  }
  net.Start();
  sim.RunUntil(300 * kMillisecond);
  for (lte::UeId u = 0; u < 42; ++u) net.OfferDownlink(u, 64 << 20);
  sim.RunUntil(2300 * kMillisecond);
  const InterferenceMap::SinrMemoStats stats = net.sinr_memo_stats();
  const double queries = static_cast<double>(stats.hits + stats.misses);
  ASSERT_GT(queries, 10000.0);
  EXPECT_GE(static_cast<double>(stats.hits) / queries, 0.8)
      << stats.hits << " hits, " << stats.misses << " misses";
}

class CqiReportOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(CqiReportOracleTest, EveryReportMatchesFormulaOnMeasuredSinr) {
  // Every delivered report must equal the CQI formula applied to the
  // SINRs MeasureDownlinkSinr gives at that instant, whether the
  // measurement was computed or replayed from the UE's previous one.
  const bool mode30 = GetParam();
  HataUrbanPathLoss pathloss;
  RadioEnvironment env(pathloss, EnvConfig(/*fading=*/true));
  Simulator sim;
  lte::LteNetwork net(sim, env, DualNetwork::NetConfig(/*engine=*/true));
  std::vector<RadioNodeId> ue_radios;
  for (int c = 0; c < 4; ++c) {
    const Point site{700.0 * (c % 2), 700.0 * (c / 2)};
    lte::LteMacConfig mac;
    mac.bandwidth = LteBandwidth::k5MHz;
    mac.tdd_config = 4;
    mac.link_adaptation_margin_db = 1.5 * c;
    mac.use_mode30_wire_format = mode30;
    net.AddCell(mac, env.AddNode({.position = site, .tx_power_dbm = 30.0}));
    for (int u = 0; u < 2; ++u) {
      ue_radios.push_back(env.AddNode(
          {.position = {site.x + 150.0 + 200.0 * u, site.y + 90.0}, .tx_power_dbm = 20.0}));
      net.AddUe(ue_radios.back());
    }
  }
  int reports = 0;
  int repeats = 0;
  std::vector<std::vector<double>> previous(ue_radios.size());
  net.on_cqi_report = [&](lte::CellId cell, lte::UeId ue, const CqiMeasurement& got) {
    const std::vector<double> sinr = net.MeasureDownlinkSinr(ue);
    const double margin = net.cell(cell).config().link_adaptation_margin_db;
    CqiMeasurement want;
    double linear = 0.0;
    for (double s : sinr) {
      want.subband_cqi.push_back(SinrToCqi(s + margin));
      linear += DbToLinear(s);
    }
    want.wideband_cqi =
        SinrToCqi(LinearToDb(linear / static_cast<double>(sinr.size())) + margin);
    if (mode30) want = DecodeMode30(EncodeMode30(want));
    EXPECT_EQ(got.wideband_cqi, want.wideband_cqi) << "ue=" << ue << " t=" << sim.Now();
    EXPECT_EQ(got.subband_cqi, want.subband_cqi) << "ue=" << ue << " t=" << sim.Now();
    std::vector<double>& last = previous[static_cast<std::size_t>(ue)];
    if (sinr == last) ++repeats;
    last = sinr;
    ++reports;
  };
  net.Start();
  sim.RunUntil(300 * kMillisecond);
  for (lte::UeId u = 0; u < 8; ++u) net.OfferDownlink(u, 4 << 20);
  sim.RunUntil(900 * kMillisecond);
  env.MoveNode(ue_radios[3], {900.0, 120.0});
  sim.RunUntil(1500 * kMillisecond);
  EXPECT_GT(reports, 1000);
  EXPECT_GT(repeats, reports / 4);  // the replay path was exercised
  EXPECT_LT(repeats, reports);      // and so was the computing one
}

INSTANTIATE_TEST_SUITE_P(Mode30OnOff, CqiReportOracleTest, ::testing::Bool());

// ---------------------------------------------------------------------------
// Scenario-level regression: full RunScenarioOn with the engine on vs off
// must produce bit-identical outcomes on fig9a-style topologies — fading
// off (exercising the aggregate cache + CellFi masks) and fading on (the
// per-link fallback), culling off in both.
// ---------------------------------------------------------------------------

scenario::ScenarioConfig ScenarioFor(scenario::Technology tech, bool fading,
                                     bool engine, double floor_db) {
  scenario::ScenarioConfig cfg;
  cfg.tech = tech;
  cfg.workload = scenario::WorkloadKind::kBacklogged;
  cfg.propagation = scenario::PropagationKind::kSuburbanUhf;
  cfg.topology.area_m = 1500.0;
  cfg.topology.num_aps = 5;
  cfg.topology.clients_per_ap = 2;
  cfg.topology.client_radius_m = 250.0;
  cfg.ap_power_dbm = 30.0;
  cfg.lte_bandwidth = LteBandwidth::k5MHz;
  cfg.lte_tdd_config = 4;
  cfg.warmup = 1 * kSecond;
  cfg.duration = 3 * kSecond;
  cfg.enable_fading = fading;
  cfg.use_interference_engine = engine;
  cfg.interference_floor_db = floor_db;
  cfg.seed = 41;
  return cfg;
}

void ExpectBitIdentical(const scenario::ScenarioResult& a,
                        const scenario::ScenarioResult& b) {
  EXPECT_EQ(a.total_throughput_bps, b.total_throughput_bps);
  EXPECT_EQ(a.fraction_connected, b.fraction_connected);
  EXPECT_EQ(a.fraction_starved, b.fraction_starved);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    EXPECT_EQ(a.clients[i].throughput_bps, b.clients[i].throughput_bps) << "client " << i;
    EXPECT_EQ(a.clients[i].attached, b.clients[i].attached) << "client " << i;
  }
}

TEST(InterferenceEngineScenarioTest, EngineOffOnBitIdenticalNoFading) {
  const auto on = scenario::RunScenario(
      ScenarioFor(scenario::Technology::kCellFi, false, true, 0.0));
  const auto off = scenario::RunScenario(
      ScenarioFor(scenario::Technology::kCellFi, false, false, 0.0));
  ExpectBitIdentical(on, off);
  EXPECT_GT(on.total_throughput_bps, 0.0);
}

TEST(InterferenceEngineScenarioTest, EngineOffOnBitIdenticalWithFading) {
  const auto on = scenario::RunScenario(
      ScenarioFor(scenario::Technology::kLte, true, true, 0.0));
  const auto off = scenario::RunScenario(
      ScenarioFor(scenario::Technology::kLte, true, false, 0.0));
  ExpectBitIdentical(on, off);
  EXPECT_GT(on.total_throughput_bps, 0.0);
}

TEST(InterferenceEngineScenarioTest, CullingStaysWithinTolerance) {
  // A 30 dB below-noise floor perturbs each SINR by < 0.01 dB; end-to-end
  // summaries must stay within a small relative band of the exact run
  // (CQI quantization usually absorbs the perturbation entirely).
  const auto exact = scenario::RunScenario(
      ScenarioFor(scenario::Technology::kLte, false, true, 0.0));
  const auto culled = scenario::RunScenario(
      ScenarioFor(scenario::Technology::kLte, false, true, 30.0));
  EXPECT_GT(exact.total_throughput_bps, 0.0);
  EXPECT_NEAR(culled.total_throughput_bps / exact.total_throughput_bps, 1.0, 0.02);
  EXPECT_NEAR(culled.fraction_connected, exact.fraction_connected, 0.11);
}

}  // namespace
}  // namespace cellfi
