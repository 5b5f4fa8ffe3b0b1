// The intra-replication shard layer (DESIGN.md §15): the WorkerPool and
// nested-parallelism guard, the NeighborGraph soundness bound, the
// ShardGrid partition, and — the contract everything else exists to keep —
// scenario-level bit-identity across shard counts: sharding may only
// change wall clock, never a single result byte.
#include "cellfi/radio/shard_grid.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "cellfi/lte/network.h"
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
// NeighborGraph
// ---------------------------------------------------------------------------

struct GraphWorld {
  GraphWorld() : pathloss(3.5), env(pathloss, Config()) {
    Rng rng(23);
    // Two clusters 40 km apart: plenty of in-cluster neighbors, and
    // cross-cluster pairs far below any reasonable floor.
    for (int i = 0; i < 8; ++i) {
      nodes.push_back(env.AddNode({.position = {rng.Uniform(-1000, 1000),
                                                rng.Uniform(-1000, 1000)},
                                   .tx_power_dbm = 30}));
    }
    for (int i = 0; i < 8; ++i) {
      nodes.push_back(env.AddNode({.position = {40000.0 + rng.Uniform(-1000, 1000),
                                                rng.Uniform(-1000, 1000)},
                                   .tx_power_dbm = 30}));
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

constexpr double kFloorDb = 30.0;
constexpr double kBandwidthHz = 360e3;

TEST(NeighborGraphTest, SymmetricAndSelfFree) {
  GraphWorld w;
  NeighborGraph g;
  g.Build(w.env, kFloorDb, kBandwidthHz);
  ASSERT_TRUE(g.built());
  EXPECT_EQ(g.node_count(), w.env.node_count());
  EXPECT_EQ(g.build_position_epoch(), w.env.position_epoch());
  for (RadioNodeId a : w.nodes) {
    EXPECT_FALSE(g.Contains(a, a));
    for (RadioNodeId b : w.nodes) {
      EXPECT_EQ(g.Contains(a, b), g.Contains(b, a)) << a << "," << b;
    }
  }
  // In-cluster pairs connected, cross-cluster pairs culled.
  EXPECT_TRUE(g.Contains(w.nodes[0], w.nodes[1]));
  EXPECT_FALSE(g.Contains(w.nodes[0], w.nodes[8]));
  EXPECT_GT(g.edge_count(), 0u);
}

TEST(NeighborGraphTest, NoFalseNegativesAgainstDenseCullReference) {
  // Soundness bound: a non-neighbor pair must fail the InterferenceMap
  // cull survivor condition in BOTH directions at power_scale = 1 (the
  // strongest any transmission can radiate). A neighbor must pass it in at
  // least one direction. This is the exact dense O(n^2) predicate the
  // graph exists to precompute.
  GraphWorld w;
  NeighborGraph g;
  g.Build(w.env, kFloorDb, kBandwidthHz);
  const double scale = std::pow(10.0, -kFloorDb / 10.0);
  for (RadioNodeId a : w.nodes) {
    for (RadioNodeId b : w.nodes) {
      if (a == b) continue;
      const bool survives_at_b =
          w.env.MeanRxPowerMw(a, b) >= w.env.NoiseMw(b, kBandwidthHz) * scale;
      const bool survives_at_a =
          w.env.MeanRxPowerMw(b, a) >= w.env.NoiseMw(a, kBandwidthHz) * scale;
      EXPECT_EQ(g.Contains(a, b), survives_at_b || survives_at_a)
          << "pair " << a << "," << b;
    }
  }
}

TEST(NeighborGraphTest, DeterministicBuildAndSortedLists) {
  GraphWorld w;
  NeighborGraph g1, g2;
  g1.Build(w.env, kFloorDb, kBandwidthHz);
  g2.Build(w.env, kFloorDb, kBandwidthHz);
  EXPECT_EQ(g1.edge_count(), g2.edge_count());
  for (RadioNodeId n : w.nodes) {
    const auto& l1 = g1.neighbors(n);
    EXPECT_EQ(l1, g2.neighbors(n));
    for (std::size_t i = 1; i < l1.size(); ++i) EXPECT_LT(l1[i - 1], l1[i]);
  }
}

TEST(NeighborGraphTest, NonPositiveFloorConnectsEverything) {
  GraphWorld w;
  NeighborGraph g;
  g.Build(w.env, 0.0, kBandwidthHz);
  const std::size_t n = w.nodes.size();
  EXPECT_EQ(g.edge_count(), n * (n - 1) / 2);
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

TEST(ShardGridTest, CrossShardEdgesCountsOnlyCellPairsAcrossShards) {
  GraphWorld w;  // 16 nodes, two clusters
  NeighborGraph g;
  g.Build(w.env, kFloorDb, kBandwidthHz);
  std::vector<Point> pos;
  for (RadioNodeId n : w.nodes) pos.push_back(w.env.node(n).position);
  // One shard: nothing crosses.
  EXPECT_EQ(CountCrossShardEdges(g, ShardGrid(pos, 1), w.nodes), 0u);
  // Two shards over two far-apart clusters: the spatial sort puts each
  // cluster in its own shard and no neighbor edge crosses them.
  EXPECT_EQ(CountCrossShardEdges(g, ShardGrid(pos, 2), w.nodes), 0u);
  // Four shards split each cluster in half: now in-cluster edges cross.
  EXPECT_GT(CountCrossShardEdges(g, ShardGrid(pos, 4), w.nodes), 0u);
}

// ---------------------------------------------------------------------------
// InterferenceMap epoch-freeze contract (release-build check)
// ---------------------------------------------------------------------------

TEST(InterferenceMapSealTest, AddTransmitterAfterSealThrows) {
  GraphWorld w;
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
  GraphWorld w;
  InterferenceMap imap(w.env);
  imap.BeginEpoch(13, kBandwidthHz);
  imap.AddTransmitter(0, w.nodes[0], 1.0);
  (void)imap.SinrDb(w.nodes[0], w.nodes[1], 0, 0, 1.0);
  EXPECT_THROW(imap.AddTransmitter(1, w.nodes[2], 1.0), std::logic_error);
}

// ---------------------------------------------------------------------------
// Scenario-level bit-identity across shard counts
// ---------------------------------------------------------------------------

scenario::ScenarioConfig ShardScenario(scenario::Technology tech, bool fading,
                                       double floor_db, int shards) {
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
  cfg.interference_floor_db = floor_db;
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
      ShardScenario(scenario::Technology::kLte, false, 0.0, 1));
  EXPECT_GT(ref.total_throughput_bps, 0.0);
  for (int shards : {2, 4, 8}) {
    const auto sharded = scenario::RunScenario(
        ShardScenario(scenario::Technology::kLte, false, 0.0, shards));
    ExpectBitIdentical(ref, sharded,
                       ("shards=" + std::to_string(shards)).c_str());
  }
}

TEST(ShardBitIdentityTest, FadingPathStaysBitIdentical) {
  // Fading falls back to per-link SINR inside the engine; the staged
  // parallel queries must still commit in the identical order.
  const auto ref = scenario::RunScenario(
      ShardScenario(scenario::Technology::kLte, true, 0.0, 1));
  const auto sharded = scenario::RunScenario(
      ShardScenario(scenario::Technology::kLte, true, 0.0, 4));
  ExpectBitIdentical(ref, sharded, "fading shards=4");
}

TEST(ShardBitIdentityTest, CullFastPathStaysBitIdenticalAcrossShards) {
  // With the 30 dB floor the NeighborGraph fast path is active; sharding
  // must not change which interferers are culled (counters are summed
  // order-independently, results merged in cell order).
  const auto ref = scenario::RunScenario(
      ShardScenario(scenario::Technology::kLte, false, 30.0, 1));
  const auto sharded = scenario::RunScenario(
      ShardScenario(scenario::Technology::kLte, false, 30.0, 4));
  ExpectBitIdentical(ref, sharded, "cull30 shards=4");
}

TEST(ShardBitIdentityTest, LbtSerialGateUnaffectedByShards) {
  // LAA/LBT draws its carrier-sense gate from the shared RNG; the serial
  // phase-1a gate loop must keep the draw sequence identical for any K.
  const auto ref = scenario::RunScenario(
      ShardScenario(scenario::Technology::kLaaLte, false, 0.0, 1));
  const auto sharded = scenario::RunScenario(
      ShardScenario(scenario::Technology::kLaaLte, false, 0.0, 4));
  ExpectBitIdentical(ref, sharded, "laa shards=4");
}

TEST(ShardBitIdentityTest, CellFiControllerStackUnaffectedByShards) {
  const auto ref = scenario::RunScenario(
      ShardScenario(scenario::Technology::kCellFi, false, 0.0, 1));
  const auto sharded = scenario::RunScenario(
      ShardScenario(scenario::Technology::kCellFi, false, 0.0, 4));
  ExpectBitIdentical(ref, sharded, "cellfi shards=4");
}

TEST(ShardBitIdentityTest, AggregateLoadTierUnaffectedByShards) {
  // The aggregate background-load tier (DESIGN.md §18) is counter-drawn
  // and runs serially on the event loop: its PRB reservations and PRACH
  // injections must be invisible to the shard partition.
  auto with_agg = [](int shards) {
    auto cfg = ShardScenario(scenario::Technology::kCellFi, false, 0.0,
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
