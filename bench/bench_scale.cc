// Cell-count scaling bench for the per-subframe interference engine
// (DESIGN.md §12) and the intra-replication shard layer (DESIGN.md §15):
// plain-LTE backlogged scenarios at constant AP density, resolved over
// identical topologies and seeds as —
//   engine         shared per-subchannel lists + the exact SINR memo,
//                  shards=1 (label kept from PR 4 for baseline diffing),
//   engine_sK      engine partitioned into K spatial shards, subframe
//                  phases on the shard worker pool (K from
//                  CELLFI_BENCH_SCALE_SHARDS, default 2,4,8).
// Emits BENCH_scale.json and prints per-count wall times and speedups.
//
// Built-in bit-identity gate: every engine_sK summary must equal the
// shards=1 engine summary to the last bit (fixed merge order makes the
// shard count unobservable). Any mismatch fails the bench.
//
// The sweep runner is pinned to ONE thread so replication-level
// parallelism does not absorb the cores the shard pool is being measured
// on; shard threads derive from hardware concurrency (the >= 2x shards=4
// acceptance number is meaningful on a 4+-core machine — on fewer cores
// the derived pool shrinks and speedups approach 1x by design).
//
// Cell counts default to 4..1024 (CELLFI_BENCH_SCALE_CELLS overrides for
// smoke runs).
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cellfi/common/table.h"
#include "cellfi/sim/worker_pool.h"
#include "fig9_common.h"

using namespace fig9;

namespace {

std::vector<int> ParseIntList(const char* env_name, std::vector<int> fallback) {
  const char* env = std::getenv(env_name);
  if (env == nullptr || *env == '\0') return fallback;
  std::vector<int> out;
  std::stringstream ss(env);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const int n = std::atoi(item.c_str());
    if (n > 0) out.push_back(n);
  }
  return out.empty() ? fallback : out;
}

std::vector<int> CellCounts() {
  return ParseIntList("CELLFI_BENCH_SCALE_CELLS",
                      {4, 8, 16, 32, 64, 256, 512, 1024});
}

std::vector<int> ShardCounts() {
  return ParseIntList("CELLFI_BENCH_SCALE_SHARDS", {2, 4, 8});
}

ScenarioConfig ScaleConfig(int num_aps, std::uint64_t seed) {
  // Fig. 9 propagation and powers, but constant AP density (the area grows
  // with sqrt(n)) so per-cell interferer counts — not coverage geometry —
  // are what changes across the sweep. Fading is off, so the bench
  // measures the memoized engine where a receiver's SINR misses only when
  // a list changes; the bit-identity checks stay meaningful either way
  // (fading runs the same merge order). Sim durations shrink with
  // cell count so the 1024-cell points stay runnable; every variant at one
  // count shares the duration, so speedups are unaffected.
  ScenarioConfig cfg = BaseConfig(Technology::kLte, num_aps, 3, seed);
  cfg.topology.area_m = 500.0 * std::sqrt(static_cast<double>(num_aps));
  cfg.enable_fading = false;
  if (num_aps <= 64) {
    cfg.warmup = 1 * kSecond;
    cfg.duration = 4 * kSecond;
  } else if (num_aps <= 256) {
    cfg.warmup = 500 * kMillisecond;
    cfg.duration = 2 * kSecond;
  } else {
    cfg.warmup = 250 * kMillisecond;
    cfg.duration = 1 * kSecond;
  }
  return cfg;
}

bool SameResult(const ScenarioResult& a, const ScenarioResult& b) {
  if (a.clients.size() != b.clients.size()) return false;
  if (a.total_throughput_bps != b.total_throughput_bps) return false;
  if (a.fraction_connected != b.fraction_connected) return false;
  if (a.fraction_starved != b.fraction_starved) return false;
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    if (a.clients[i].throughput_bps != b.clients[i].throughput_bps) return false;
  }
  return true;
}

struct Variant {
  std::string name;
  int shards = 1;
  bool identity_reference = false;  // the shards=1 engine run others diff against
};

std::vector<Variant> Variants(const std::vector<int>& shard_counts) {
  std::vector<Variant> v;
  v.push_back(Variant{.name = "engine", .identity_reference = true});
  for (int k : shard_counts) {
    if (k <= 1) continue;
    v.push_back(Variant{.name = "engine_s" + std::to_string(k), .shards = k});
  }
  return v;
}

}  // namespace

int main() {
  std::cout << "CellFi reproduction -- interference-engine + shard scaling bench\n";
  std::cout << "hardware threads: " << cellfi::HardwareConcurrency() << "\n\n";
  const std::vector<int> counts = CellCounts();
  const std::vector<Variant> variants = Variants(ShardCounts());
  const int reps = Reps(1);

  // One sweep thread: the shard pool inside each replication is what this
  // bench measures, so it gets the machine (see the nested-parallelism
  // guard in sim/worker_pool).
  SweepOptions opts;
  opts.progress = true;
  opts.threads = 1;
  SweepRunner runner(opts);
  BenchReport report("scale", runner.threads(), reps);

  struct PointInfo {
    int cells = 0;
    Variant variant;
  };
  std::vector<PointInfo> points;
  std::vector<Replication> jobs;
  for (std::size_t ci = 0; ci < counts.size(); ++ci) {
    const int first_point = static_cast<int>(points.size());
    for (const Variant& v : variants) {
      points.push_back(PointInfo{counts[ci], v});
    }
    for (int rep = 0; rep < reps; ++rep) {
      const std::uint64_t seed = SweepSeed(0x5CA1E, ci, static_cast<std::uint64_t>(rep));
      Rng rng(seed);
      auto topo = std::make_shared<const Topology>(
          GenerateTopology(ScaleConfig(counts[ci], seed).topology, rng));
      for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        ScenarioConfig cfg = ScaleConfig(counts[ci], seed);
        cfg.shards = variants[vi].shards;
        jobs.push_back(Replication{
            cfg, topo, first_point + static_cast<int>(vi), rep,
            "cells=" + std::to_string(counts[ci]) + "/" + variants[vi].name});
      }
    }
  }
  const auto outcomes = runner.Run(jobs);
  ThrowIfFailed(outcomes);

  const auto result_of = [&](int point, int rep) -> const ScenarioResult* {
    for (const ReplicationOutcome& o : outcomes) {
      if (o.point == point && o.rep == rep) return &o.result;
    }
    return nullptr;
  };

  // Bit-identity gate, per (cell count, rep): engine_sK == engine for
  // every K — the shard-layer contract: merge order is fixed at the
  // barrier, so the shard count is unobservable in the results.
  for (int p = 0; p < static_cast<int>(points.size()); ++p) {
    if (!points[static_cast<std::size_t>(p)].variant.identity_reference) continue;
    const int cells = points[static_cast<std::size_t>(p)].cells;
    for (int rep = 0; rep < reps; ++rep) {
      const ScenarioResult* ref = result_of(p, rep);
      if (ref == nullptr) continue;
      for (int q = 0; q < static_cast<int>(points.size()); ++q) {
        const PointInfo& info = points[static_cast<std::size_t>(q)];
        if (info.cells != cells || q == p) continue;
        const ScenarioResult* other = result_of(q, rep);
        if (other == nullptr) continue;
        if (!SameResult(*ref, *other)) {
          std::cerr << "FAIL: " << info.variant.name
                    << " result diverges from engine shards=1 at cells=" << cells
                    << " rep=" << rep << "\n";
          return 1;
        }
      }
    }
  }
  std::cout << "Bit-identity check: every shard count matches "
               "engine shards=1 at every cell count\n\n";

  std::vector<std::string> header{"cells"};
  for (const Variant& v : variants) header.push_back(v.name + " s");
  header.push_back("s4 speedup");
  Table t(header);

  double worst_s4_speedup_256plus = -1.0;
  for (int cells : counts) {
    std::vector<std::string> row{std::to_string(cells)};
    double engine_wall = 0.0;
    double s4_wall = 0.0;
    for (const Variant& v : variants) {
      const std::string& name = v.name;
      double wall = 0.0;
      for (int p = 0; p < static_cast<int>(points.size()); ++p) {
        const PointInfo& info = points[static_cast<std::size_t>(p)];
        if (info.cells != cells || info.variant.name != name) continue;
        for (const ReplicationOutcome& o : outcomes) {
          if (o.point == p) wall += o.wall_seconds;
        }
        report.AddPoint("cells=" + std::to_string(cells) + "/" + name, outcomes, p);
      }
      row.push_back(Table::Num(wall, 2));
      if (name == "engine") engine_wall = wall;
      if (name == "engine_s4") s4_wall = wall;
    }
    const double s4_speedup = s4_wall > 0.0 ? engine_wall / s4_wall : 0.0;
    row.push_back(s4_wall > 0.0 ? Table::Num(s4_speedup, 2) + "x" : "-");
    if (cells >= 256 && s4_wall > 0.0) {
      if (worst_s4_speedup_256plus < 0.0 || s4_speedup < worst_s4_speedup_256plus) {
        worst_s4_speedup_256plus = s4_speedup;
      }
    }
    t.AddRow(row);
  }
  t.Print(std::cout, "Wall time per variant (all reps); s4 speedup = engine/engine_s4");

  if (worst_s4_speedup_256plus >= 0.0 && cellfi::HardwareConcurrency() >= 4 &&
      worst_s4_speedup_256plus < 2.0) {
    // Advisory, not fatal: thermal/contended machines shouldn't fail the
    // determinism gate, but the regression is worth a loud line.
    std::cout << "WARN: shards=4 speedup at 256+ cells is "
              << worst_s4_speedup_256plus << "x (< 2x on a "
              << cellfi::HardwareConcurrency() << "-thread machine)\n";
  }
  std::cout << "Bench artifact: " << report.Write() << "\n";
  return 0;
}
