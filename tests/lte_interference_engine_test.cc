// The per-subframe interference engine's determinism contract (DESIGN.md
// §12): every path through InterferenceMap must be BIT-identical to
// RadioEnvironment::SinrDb over the same interferer lists — same doubles,
// not just close — across fading on/off, cell activity toggles and
// mobility.
#include "cellfi/radio/interference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cellfi/lte/network.h"
#include "cellfi/phy/cqi_mcs.h"
#include "cellfi/radio/pathloss.h"
#include "cellfi/scenario/harness.h"

namespace cellfi {
namespace {

RadioEnvironmentConfig EnvConfig(bool fading) {
  RadioEnvironmentConfig c;
  c.carrier_freq_hz = 600e6;
  c.shadowing_sigma_db = 4.0;
  c.enable_fading = fading;
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
  std::vector<ActiveTransmitter> list;
  list.push_back({w.tx, 1.0 / 13.0});
  for (RadioNodeId n : w.others) list.push_back({n, 1.0 / 13.0});
  for (int s = 0; s < 13; ++s) {
    for (const ActiveTransmitter& t : list) imap.AddTransmitter(s, t.node, t.power_scale);
  }
  for (SimTime now = 0; now <= 100 * kMillisecond; now += 20 * kMillisecond) {
    for (int s = 0; s < 13; ++s) {
      const double engine = imap.SinrDb(w.tx, w.rx, s, now, 1.0 / 13.0);
      const double perlink =
          w.env.SinrDb(w.tx, w.rx, static_cast<std::uint32_t>(s), now, list, 360e3,
                       1.0 / 13.0);
      EXPECT_EQ(engine, perlink) << "fading=" << fading << " s=" << s << " t=" << now;
    }
  }
  // All 13 lists are identical -> one aggregation group.
  EXPECT_EQ(imap.num_groups(), 1);
}

TEST_P(InterferenceMapTest, DistinctListsPerSubchannelStayExact) {
  const bool fading = GetParam();
  World w(EnvConfig(fading));
  InterferenceMap imap(w.env);
  imap.BeginEpoch(13, 360e3);
  // Interferer i transmits only on subchannels s >= i. With 12 interferers
  // that makes subchannels 0..11 pairwise distinct while 11 and 12 share a
  // list — 12 aggregation groups, exercising dedup and distinctness both.
  std::vector<std::vector<ActiveTransmitter>> lists(13);
  for (int s = 0; s < 13; ++s) {
    for (std::size_t i = 0; i <= static_cast<std::size_t>(s) && i < w.others.size(); ++i) {
      imap.AddTransmitter(s, w.others[i], 1.0 / 13.0);
      lists[static_cast<std::size_t>(s)].push_back({w.others[i], 1.0 / 13.0});
    }
  }
  for (int s = 0; s < 13; ++s) {
    const double engine = imap.SinrDb(w.tx, w.rx, s, 5 * kMillisecond, 1.0 / 13.0);
    const double perlink =
        w.env.SinrDb(w.tx, w.rx, static_cast<std::uint32_t>(s), 5 * kMillisecond,
                     lists[static_cast<std::size_t>(s)], 360e3, 1.0 / 13.0);
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
}

INSTANTIATE_TEST_SUITE_P(FadingOnOff, InterferenceMapMemoTest, ::testing::Bool());

// ---------------------------------------------------------------------------
// Network-level reference: after every subframe, each connected UE's
// MeasureDownlinkSinr must equal, bit for bit, RadioEnvironment::SinrDb on
// a second, identically seeded environment that shares no cache with the
// network's — over interferer lists rebuilt here from each cell's
// committed downlink plan (cell-index order, 1/N of the cell's power per
// subchannel), minus the idle-cell CRS penalty recomputed from mean powers.
// Stepped through an activity toggle and mobility, fading off and on.
// ---------------------------------------------------------------------------

lte::LteNetworkConfig NetConfig() {
  lte::LteNetworkConfig c;
  c.seed = 11;
  return c;
}

bool BitEqual(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class ReferenceNetwork {
 public:
  explicit ReferenceNetwork(bool fading)
      : env_(pathloss_, EnvConfig(fading)),
        ref_env_(pathloss_, EnvConfig(fading)),
        net_(sim_, env_, NetConfig()) {}

  RadioNodeId AddNode(const RadioNode& node) {
    const RadioNodeId id = env_.AddNode(node);
    EXPECT_EQ(ref_env_.AddNode(node), id);
    return id;
  }
  void MoveNode(RadioNodeId id, Point p) {
    env_.MoveNode(id, p);
    ref_env_.MoveNode(id, p);
  }

  lte::CellId AddCellAt(Point p) {
    cell_radios_.push_back(AddNode({.position = p, .tx_power_dbm = 30.0}));
    lte::LteMacConfig mac;
    mac.bandwidth = LteBandwidth::k5MHz;
    mac.tdd_config = 4;
    return net_.AddCell(mac, cell_radios_.back());
  }

  lte::UeId AddUeAt(Point p) {
    ue_radios_.push_back(AddNode({.position = p, .tx_power_dbm = 20.0}));
    return net_.AddUe(ue_radios_.back());
  }

  /// What MeasureDownlinkSinr must return for `u` right now.
  std::vector<double> ReferenceSinr(lte::UeId u) {
    const int n = net_.cell(0).grid().num_subchannels();
    const double bandwidth_hz = net_.cell(0).grid().rbg_size() * kRbBandwidthHz;
    const double share = 1.0 / static_cast<double>(n);
    std::vector<double> out(static_cast<std::size_t>(n), -40.0);
    const lte::UeInfo& info = net_.ue(u);
    if (info.serving == lte::kInvalidCell || !net_.cell_active(info.serving)) return out;
    const RadioNodeId signal = cell_radios_[static_cast<std::size_t>(info.serving)];
    const double signal_mw = ref_env_.MeanRxPowerMw(signal, info.radio);
    double crs_penalty_db = 0.0;
    for (std::size_t c = 0; c < cell_radios_.size(); ++c) {
      if (static_cast<lte::CellId>(c) == info.serving ||
          !net_.cell_active(static_cast<lte::CellId>(c)) || signal_mw <= 0.0) {
        continue;
      }
      crs_penalty_db +=
          std::min(1.0, ref_env_.MeanRxPowerMw(cell_radios_[c], info.radio) / signal_mw);
    }
    crs_penalty_db = std::min(crs_penalty_db, 2.0);
    for (int s = 0; s < n; ++s) {
      std::vector<ActiveTransmitter> interferers;
      for (std::size_t c = 0; c < cell_radios_.size(); ++c) {
        const auto id = static_cast<lte::CellId>(c);
        const lte::TxPlan* plan = net_.committed_downlink_plan(id);
        if (id == info.serving || !net_.cell_active(id) || plan == nullptr ||
            !plan->data_active[static_cast<std::size_t>(s)]) {
          continue;
        }
        interferers.push_back({cell_radios_[c], share});
      }
      if (interferers.size() >= 2) ++multi_interferer_lists_;
      out[static_cast<std::size_t>(s)] =
          ref_env_.SinrDb(signal, info.radio, static_cast<std::uint32_t>(s), sim_.Now(),
                          interferers, bandwidth_hz, share) -
          crs_penalty_db;
    }
    return out;
  }

  /// Compare every connected UE against the reference; report the first
  /// mismatch only (one wrong list would otherwise flood the log).
  void Check(const std::string& when) {
    for (lte::UeId u = 0; u < static_cast<lte::UeId>(net_.ue_count()); ++u) {
      if (net_.ue(u).state != lte::UeState::kConnected) continue;
      const std::vector<double> got = net_.MeasureDownlinkSinr(u);
      const std::vector<double> want = ReferenceSinr(u);
      ASSERT_EQ(got.size(), want.size());
      ++checked_ues_;
      for (std::size_t s = 0; s < got.size(); ++s) {
        if (BitEqual(got[s], want[s])) continue;
        ++mismatches_;
        if (mismatches_ == 1) {
          ADD_FAILURE() << when << " t=" << sim_.Now() << " ue=" << u << " s=" << s
                        << ": network " << got[s] << " vs reference " << want[s];
        }
      }
    }
  }

  /// Run subframe by subframe until `until`, checking after each one.
  void StepAndCheck(SimTime until, const std::string& when) {
    while (sim_.Now() < until) {
      sim_.RunUntil(sim_.Now() + kSubframeDuration);
      Check(when);
    }
  }

  HataUrbanPathLoss pathloss_;
  Simulator sim_;
  RadioEnvironment env_;
  RadioEnvironment ref_env_;
  lte::LteNetwork net_;
  std::vector<RadioNodeId> cell_radios_;
  std::vector<RadioNodeId> ue_radios_;
  std::uint64_t checked_ues_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t multi_interferer_lists_ = 0;
};

class NetworkReferenceTest : public ::testing::TestWithParam<bool> {};

TEST_P(NetworkReferenceTest, DownlinkSinrMatchesSinrDbReference) {
  ReferenceNetwork r(GetParam());
  const Point sites[] = {{0, 0}, {900, 0}, {0, 900}, {900, 900}, {450, 450}};
  for (const Point& site : sites) {
    r.AddCellAt(site);
    for (int u = 0; u < 2; ++u) {
      r.AddUeAt({site.x + 120.0 + 150.0 * u, site.y + 60.0 * u});
    }
  }
  // Partial masks give the subchannels distinct interferer lists.
  std::vector<bool> low_half(13, false);
  std::vector<bool> even(13, false);
  for (std::size_t s = 0; s < 13; ++s) {
    low_half[s] = s < 7;
    even[s] = s % 2 == 0;
  }
  r.net_.SetAllowedMask(1, low_half);
  r.net_.SetAllowedMask(3, even);
  r.net_.Start();
  r.sim_.RunUntil(300 * kMillisecond);
  // Unequal loads: some cells drain and go idle while others stay busy.
  for (lte::UeId u = 0; u < 10; ++u) r.net_.OfferDownlink(u, (u % 3 == 0 ? 48u : 2048u) << 10);
  r.StepAndCheck(500 * kMillisecond, "steady state");

  // Activity toggle: the map and the CRS-penalty cache must follow.
  r.net_.SetCellActive(2, false);
  r.Check("after deactivate");
  r.StepAndCheck(650 * kMillisecond, "cell 2 off");
  r.net_.SetCellActive(2, true);
  r.Check("after reactivate");
  r.StepAndCheck(800 * kMillisecond, "cell 2 back on");

  // Mobility: position_epoch must invalidate the aggregate rows.
  r.MoveNode(r.ue_radios_[0], {700, 120});
  r.Check("after move");
  r.StepAndCheck(1000 * kMillisecond, "after move + run");

  EXPECT_EQ(r.mismatches_, 0u);
  EXPECT_GT(r.checked_ues_, 1000u);
  EXPECT_GT(r.multi_interferer_lists_, 1000u);  // order within a list mattered
}

INSTANTIATE_TEST_SUITE_P(FadingOnOff, NetworkReferenceTest, ::testing::Bool());

TEST(InterferenceEngineConfigTest, NetworkRejectsEngineOff) {
  HataUrbanPathLoss pathloss;
  RadioEnvironment env(pathloss, EnvConfig(/*fading=*/false));
  Simulator sim;
  lte::LteNetworkConfig c = NetConfig();
  c.use_interference_engine = false;
  EXPECT_THROW({ lte::LteNetwork net(sim, env, c); }, std::invalid_argument);

  // The removed cull's floor is checked input too: > 0 is rejected, while
  // <= 0 (the old "cull off") is accepted.
  RadioEnvironmentConfig floor_cfg = EnvConfig(/*fading=*/false);
  floor_cfg.interference_floor_db = 30.0;
  RadioEnvironment floor_env(pathloss, floor_cfg);
  EXPECT_THROW({ lte::LteNetwork net(sim, floor_env, NetConfig()); }, std::invalid_argument);
  floor_cfg.interference_floor_db = -3.0;
  RadioEnvironment off_env(pathloss, floor_cfg);
  EXPECT_NO_THROW({ lte::LteNetwork net(sim, off_env, NetConfig()); });
}

TEST(InterferenceEngineNetworkTest, SinrMemoHitsInSteadyFadingScenario) {
  // 14 backlogged cells with fading on: within a 50 ms block, a receiver's
  // sub-band SINRs repeat until some transmit pattern changes, so a memo
  // whose key is right but never hits would show here as a low rate.
  HataUrbanPathLoss pathloss;
  RadioEnvironment env(pathloss, EnvConfig(/*fading=*/true));
  Simulator sim;
  lte::LteNetwork net(sim, env, NetConfig());
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
  lte::LteNetwork net(sim, env, NetConfig());
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

/// A small plain-LTE backlogged scenario, fading off.
scenario::ScenarioConfig LteScenario() {
  scenario::ScenarioConfig cfg;
  cfg.tech = scenario::Technology::kLte;
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
  cfg.enable_fading = false;
  cfg.seed = 41;
  return cfg;
}

TEST(InterferenceEngineConfigTest, ScenarioRejectsEngineOff) {
  scenario::ScenarioConfig cfg = LteScenario();
  cfg.use_interference_engine = false;
  EXPECT_THROW(scenario::RunScenario(cfg), std::invalid_argument);

  scenario::ScenarioConfig floor_cfg = LteScenario();
  floor_cfg.interference_floor_db = 30.0;
  EXPECT_THROW(scenario::RunScenario(floor_cfg), std::invalid_argument);
}

}  // namespace
}  // namespace cellfi
