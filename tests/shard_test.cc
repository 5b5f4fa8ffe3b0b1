// The intra-replication shard layer (DESIGN.md §15): the WorkerPool and
// nested-parallelism guard, the ShardGrid partition, the per-pass shard
// metrics, and — the contract everything else exists to keep —
// scenario-level bit-identity across shard counts: sharding may only
// change wall clock, never a single result byte.
#include "cellfi/radio/shard_grid.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "cellfi/lte/network.h"
#include "cellfi/obs/metrics.h"
#include "cellfi/obs/trace.h"
#include "cellfi/radio/interference.h"
#include "cellfi/radio/pathloss.h"
#include "cellfi/scenario/harness.h"
#include "cellfi/sim/worker_pool.h"

namespace cellfi {
namespace {

// ---------------------------------------------------------------------------
// WorkerPool + nested-parallelism guard
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, RunIndexedCoversEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  constexpr std::size_t kCount = 257;  // more tasks than threads
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  pool.RunIndexed(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPoolTest, ReusableAcrossBatchesAndZeroCount) {
  WorkerPool pool(2);
  pool.RunIndexed(0, [](std::size_t) { FAIL() << "no tasks expected"; });
  std::atomic<int> sum{0};
  for (int batch = 0; batch < 3; ++batch) {
    pool.RunIndexed(10, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i) + 1);
    });
  }
  EXPECT_EQ(sum.load(), 3 * 55);
}

TEST(WorkerPoolTest, RethrowsFirstExceptionByTaskIndex) {
  WorkerPool pool(3);
  // Multiple tasks throw; the pool must surface the LOWEST-index failure
  // regardless of completion order, so error reporting is deterministic.
  try {
    pool.RunIndexed(16, [](std::size_t i) {
      if (i == 11 || i == 4 || i == 9) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 4");
  }
  // The pool survives a throwing batch.
  std::atomic<int> ran{0};
  pool.RunIndexed(5, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 5);
}

TEST(ShardThreadsTest, ExplicitRequestWinsAndClampsToShardCount) {
  EXPECT_EQ(ResolveShardThreads(/*requested=*/3, /*shards=*/8), 3);
  EXPECT_EQ(ResolveShardThreads(/*requested=*/8, /*shards=*/4), 4);
  EXPECT_EQ(ResolveShardThreads(/*requested=*/1, /*shards=*/8), 1);
}

TEST(ShardThreadsTest, EnvKnobAppliesWhenConfigUnset) {
  ASSERT_EQ(setenv("CELLFI_SHARD_THREADS", "6", 1), 0);
  EXPECT_EQ(ResolveShardThreads(0, /*shards=*/8), 6);
  EXPECT_EQ(ResolveShardThreads(0, /*shards=*/2), 2);  // still clamped
  EXPECT_EQ(ResolveShardThreads(4, /*shards=*/8), 4);  // config beats env
  ASSERT_EQ(unsetenv("CELLFI_SHARD_THREADS"), 0);
}

TEST(ShardThreadsTest, DegenerateShardCountClampsToOne) {
  // shards < 1 is treated as a single shard, and the thread count can
  // never exceed it — regardless of how parallel the request is.
  EXPECT_EQ(ResolveShardThreads(/*requested=*/8, /*shards=*/0), 1);
  EXPECT_EQ(ResolveShardThreads(/*requested=*/8, /*shards=*/-5), 1);
  EXPECT_EQ(ResolveShardThreads(/*requested=*/0, /*shards=*/0), 1);
}

TEST(ShardThreadsTest, EnvGarbageAndNegativesFallThroughToDerivedDefault) {
  // Non-numeric, negative and zero env values are all rejected (only
  // strictly positive integers count), so resolution falls through to the
  // derived default — pin it with all hardware threads claimed by sweep
  // workers, where the default is exactly 1.
  const int hw = HardwareConcurrency();
  AddActiveSweepThreads(hw);
  for (const char* junk : {"garbage", "-3", "0", ""}) {
    ASSERT_EQ(setenv("CELLFI_SHARD_THREADS", junk, 1), 0);
    EXPECT_EQ(ResolveShardThreads(0, /*shards=*/8), 1) << "env=" << junk;
  }
  ASSERT_EQ(unsetenv("CELLFI_SHARD_THREADS"), 0);
  AddActiveSweepThreads(-hw);
}

TEST(ShardThreadsTest, NegativeRequestBehavesLikeUnset) {
  // requested <= 0 means "unset": the env knob (when valid) takes over,
  // and the [1, shards] clamp still applies to the env value.
  ASSERT_EQ(setenv("CELLFI_SHARD_THREADS", "6", 1), 0);
  EXPECT_EQ(ResolveShardThreads(-1, /*shards=*/8), 6);
  EXPECT_EQ(ResolveShardThreads(-7, /*shards=*/3), 3);
  ASSERT_EQ(unsetenv("CELLFI_SHARD_THREADS"), 0);
}

TEST(ShardThreadsTest, DerivedDefaultRespectsActiveSweepThreads) {
  // With every hardware thread claimed by sweep workers, the derived shard
  // default collapses to 1: sweep_threads x shard_threads never silently
  // oversubscribes the machine.
  const int hw = HardwareConcurrency();
  AddActiveSweepThreads(hw);
  EXPECT_EQ(ResolveShardThreads(0, /*shards=*/8), 1);
  // An explicit request is still honored verbatim.
  EXPECT_EQ(ResolveShardThreads(4, /*shards=*/8), 4);
  AddActiveSweepThreads(-hw);
  const int derived = ResolveShardThreads(0, /*shards=*/1024);
  EXPECT_GE(derived, 1);
  EXPECT_LE(derived, hw);
}

// ---------------------------------------------------------------------------
// ShardGrid
// ---------------------------------------------------------------------------

TEST(ShardGridTest, PartitionCoversBalancedAndConsistent) {
  Rng rng(31);
  std::vector<Point> pos;
  for (int i = 0; i < 37; ++i) {
    pos.push_back({rng.Uniform(0, 5000), rng.Uniform(0, 5000)});
  }
  ShardGrid grid(pos, 4);
  ASSERT_EQ(grid.num_shards(), 4);
  std::vector<int> owner(pos.size(), -1);
  std::size_t min_size = pos.size(), max_size = 0;
  for (int s = 0; s < grid.num_shards(); ++s) {
    const auto& cells = grid.cells(s);
    min_size = std::min(min_size, cells.size());
    max_size = std::max(max_size, cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(cells[i - 1], cells[i]);  // ascending
      }
      ASSERT_GE(cells[i], 0);
      ASSERT_LT(cells[i], static_cast<int>(pos.size()));
      EXPECT_EQ(owner[static_cast<std::size_t>(cells[i])], -1)
          << "cell owned twice";
      owner[static_cast<std::size_t>(cells[i])] = s;
      EXPECT_EQ(grid.shard_of(cells[i]), s);
    }
  }
  for (std::size_t c = 0; c < pos.size(); ++c) {
    EXPECT_NE(owner[c], -1) << "cell " << c << " unowned";
  }
  EXPECT_LE(max_size - min_size, 1u);  // balanced to within one cell
}

TEST(ShardGridTest, ClampsShardCountToCells) {
  std::vector<Point> pos{{0, 0}, {10, 0}, {20, 0}};
  EXPECT_EQ(ShardGrid(pos, 8).num_shards(), 3);
  EXPECT_EQ(ShardGrid(pos, 0).num_shards(), 1);
  ShardGrid one(pos, 1);
  EXPECT_EQ(one.num_shards(), 1);
  EXPECT_EQ(one.cells(0).size(), 3u);
}

// ---------------------------------------------------------------------------
// InterferenceMap epoch-freeze contract (release-build check)
// ---------------------------------------------------------------------------

/// Three transmit-capable nodes 300 m apart.
struct SealWorld {
  SealWorld() : pathloss(3.5), env(pathloss, Config()) {
    for (int i = 0; i < 3; ++i) {
      nodes.push_back(env.AddNode({.position = {300.0 * i, 0}, .tx_power_dbm = 30}));
    }
  }
  static RadioEnvironmentConfig Config() {
    RadioEnvironmentConfig c;
    c.carrier_freq_hz = 600e6;
    c.shadowing_sigma_db = 4.0;
    c.enable_fading = false;
    c.seed = 9;
    return c;
  }
  LogDistancePathLoss pathloss;
  RadioEnvironment env;
  std::vector<RadioNodeId> nodes;
};

constexpr double kBandwidthHz = 360e3;

TEST(InterferenceMapSealTest, AddTransmitterAfterSealThrows) {
  SealWorld w;
  InterferenceMap imap(w.env);
  imap.BeginEpoch(13, kBandwidthHz);
  imap.AddTransmitter(0, w.nodes[0], 1.0);
  imap.Seal();
  EXPECT_THROW(imap.AddTransmitter(0, w.nodes[1], 1.0), std::logic_error);
  // BeginEpoch reopens the map.
  imap.BeginEpoch(13, kBandwidthHz);
  EXPECT_NO_THROW(imap.AddTransmitter(0, w.nodes[1], 1.0));
}

TEST(InterferenceMapSealTest, FirstQuerySealsImplicitly) {
  SealWorld w;
  InterferenceMap imap(w.env);
  imap.BeginEpoch(13, kBandwidthHz);
  imap.AddTransmitter(0, w.nodes[0], 1.0);
  (void)imap.SinrDb(w.nodes[0], w.nodes[1], 0, 0, 1.0);
  EXPECT_THROW(imap.AddTransmitter(1, w.nodes[2], 1.0), std::logic_error);
}

// ---------------------------------------------------------------------------
// Per-pass shard metrics
// ---------------------------------------------------------------------------

TEST(ShardMetricsTest, CqiPassReportsItsOwnPerShardImbalance) {
  // Two cells 5 km apart, one per shard; cell 0 serves one UE and cell 1
  // two. Nothing is offered, so no subframe stages a transmission and
  // every imbalance sample comes from the CQI pass: (2 - 1) / 2 = 0.5.
  HataUrbanPathLoss pathloss;
  RadioEnvironmentConfig env_cfg;
  env_cfg.enable_fading = false;
  env_cfg.seed = 5;
  RadioEnvironment env(pathloss, env_cfg);
  Simulator sim;
  lte::LteNetworkConfig net_cfg;
  net_cfg.shards = 2;
  net_cfg.shard_threads = 2;
  lte::LteNetwork net(sim, env, net_cfg);
  lte::LteMacConfig mac;
  mac.bandwidth = LteBandwidth::k5MHz;
  mac.tdd_config = 4;
  for (double x : {0.0, 5000.0}) {
    const lte::CellId cell = net.AddCell(
        mac, env.AddNode({.position = {x, 0}, .antenna = Antenna::Omni(6.0),
                          .tx_power_dbm = 30.0}));
    for (int u = 0; u <= cell; ++u) {
      net.AddUe(env.AddNode({.position = {x + 100.0 + 50.0 * u, 0}, .tx_power_dbm = 20.0}),
                cell);
    }
  }

  obs::MetricsRegistry metrics;
  obs::ObsScope scope(nullptr, &metrics);
  net.Start();
  sim.RunUntil(500 * kMillisecond);  // attach; UEs connect at different times
  ASSERT_EQ(net.shard_count(), 2);
  for (lte::UeId ue = 0; ue < 3; ++ue) {
    ASSERT_EQ(net.ue(ue).state, lte::UeState::kConnected) << "ue " << ue;
  }
  const obs::MetricsRegistry::HistogramData* imbalance =
      metrics.histogram("lte.shard.imbalance");
  const std::uint64_t total_before = imbalance != nullptr ? imbalance->total : 0;
  const double sum_before = imbalance != nullptr ? imbalance->sum : 0.0;

  sim.RunUntil(1500 * kMillisecond);
  imbalance = metrics.histogram("lte.shard.imbalance");
  ASSERT_NE(imbalance, nullptr);
  const std::uint64_t samples = imbalance->total - total_before;
  EXPECT_GT(samples, 100u);
  EXPECT_EQ(imbalance->sum - sum_before, 0.5 * static_cast<double>(samples));
}

// ---------------------------------------------------------------------------
// Scenario-level bit-identity across shard counts
// ---------------------------------------------------------------------------

scenario::ScenarioConfig ShardScenario(scenario::Technology tech, bool fading,
                                       int shards) {
  scenario::ScenarioConfig cfg;
  cfg.tech = tech;
  cfg.workload = scenario::WorkloadKind::kBacklogged;
  cfg.propagation = scenario::PropagationKind::kSuburbanUhf;
  cfg.topology.area_m = 1500.0;
  cfg.topology.num_aps = 6;
  cfg.topology.clients_per_ap = 2;
  cfg.topology.client_radius_m = 250.0;
  cfg.ap_power_dbm = 30.0;
  cfg.lte_bandwidth = LteBandwidth::k5MHz;
  cfg.lte_tdd_config = 4;
  cfg.warmup = 1 * kSecond;
  cfg.duration = 3 * kSecond;
  cfg.enable_fading = fading;
  cfg.shards = shards;
  // Pin 4 worker threads so the sharded variants exercise REAL
  // multi-threading (and race under TSan if anything is wrong) even on
  // single-core CI machines, where the derived default would be 1.
  cfg.shard_threads = shards > 1 ? 4 : 0;
  cfg.seed = 47;
  return cfg;
}

void ExpectBitIdentical(const scenario::ScenarioResult& a,
                        const scenario::ScenarioResult& b, const char* what) {
  EXPECT_EQ(a.total_throughput_bps, b.total_throughput_bps) << what;
  EXPECT_EQ(a.fraction_connected, b.fraction_connected) << what;
  EXPECT_EQ(a.fraction_starved, b.fraction_starved) << what;
  ASSERT_EQ(a.clients.size(), b.clients.size()) << what;
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    EXPECT_EQ(a.clients[i].throughput_bps, b.clients[i].throughput_bps)
        << what << " client " << i;
    EXPECT_EQ(a.clients[i].attached, b.clients[i].attached)
        << what << " client " << i;
  }
}

TEST(ShardBitIdentityTest, AnyShardCountMatchesUnshardedNoFading) {
  const auto ref = scenario::RunScenario(
      ShardScenario(scenario::Technology::kLte, false, 1));
  EXPECT_GT(ref.total_throughput_bps, 0.0);
  for (int shards : {2, 4, 8}) {
    const auto sharded = scenario::RunScenario(
        ShardScenario(scenario::Technology::kLte, false, shards));
    ExpectBitIdentical(ref, sharded,
                       ("shards=" + std::to_string(shards)).c_str());
  }
}

TEST(ShardBitIdentityTest, FadingPathStaysBitIdentical) {
  // Fading falls back to per-link SINR inside the engine; the staged
  // parallel queries must still commit in the identical order.
  const auto ref = scenario::RunScenario(
      ShardScenario(scenario::Technology::kLte, true, 1));
  const auto sharded = scenario::RunScenario(
      ShardScenario(scenario::Technology::kLte, true, 4));
  ExpectBitIdentical(ref, sharded, "fading shards=4");
}

TEST(ShardBitIdentityTest, LbtSerialGateUnaffectedByShards) {
  // LAA/LBT draws its carrier-sense gate from the shared RNG; the serial
  // phase-1a gate loop must keep the draw sequence identical for any K.
  const auto ref = scenario::RunScenario(
      ShardScenario(scenario::Technology::kLaaLte, false, 1));
  const auto sharded = scenario::RunScenario(
      ShardScenario(scenario::Technology::kLaaLte, false, 4));
  ExpectBitIdentical(ref, sharded, "laa shards=4");
}

TEST(ShardBitIdentityTest, CellFiControllerStackUnaffectedByShards) {
  const auto ref = scenario::RunScenario(
      ShardScenario(scenario::Technology::kCellFi, false, 1));
  const auto sharded = scenario::RunScenario(
      ShardScenario(scenario::Technology::kCellFi, false, 4));
  ExpectBitIdentical(ref, sharded, "cellfi shards=4");
}

TEST(ShardBitIdentityTest, AggregateLoadTierUnaffectedByShards) {
  // The aggregate background-load tier (DESIGN.md §18) is counter-drawn
  // and runs serially on the event loop: its PRB reservations and PRACH
  // injections must be invisible to the shard partition.
  auto with_agg = [](int shards) {
    auto cfg = ShardScenario(scenario::Technology::kCellFi, false,
                             shards);
    cfg.aggregate_load.users_per_cell = 300;
    cfg.aggregate_load.activity_jitter = 0.2;
    cfg.aggregate_load.flash_rate_per_s = 0.05;
    return cfg;
  };
  const auto ref = scenario::RunScenario(with_agg(1));
  const auto sharded = scenario::RunScenario(with_agg(4));
  ExpectBitIdentical(ref, sharded, "agg-load shards=4");
}

}  // namespace
}  // namespace cellfi
