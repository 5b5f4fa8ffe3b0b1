// One replication of a named benchmark workload, printed as one JSON line.
//
//   cellfi_perfbench <workload> <seed> <trace 0|1>
//   cellfi_perfbench <workload> <seed> setup
//   cellfi_perfbench <workload> <seed> library
//
// The scenario is assembled here from the public layer APIs, mirroring
// scenario::RunScenario for the LTE-based technologies (backlogged traffic,
// no chaos plan), so the benchmark can take timestamps at the layer
// boundaries without any instrumentation inside the library:
//   setup      topology -> RadioEnvironment::AddNode -> LteNetwork::AddCell/
//              AddUe -> CellfiController ctor + Start -> aggregate tier
//   run        Simulator::RunUntil (one call untraced; one subframe per
//              call traced, so each subframe is a span)
//   hooks      the controller's on_cqi_report / on_prach handlers, the
//              delivery accounting and the aggregate tier's generator are
//              wrapped by timing lambdas (traced only)
// `setup` stops at the first subframe and reports only the set-up time.
// `library` runs scenario::RunScenario instead; the test suite uses it to
// prove the assembly here produces the library's result bytes.
//
// Timings use std::chrono::steady_clock and never feed back into the
// simulation, so the outcome bytes are the same traced or untraced.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cellfi/common/stats.h"
#include "cellfi/common/units.h"
#include "cellfi/core/cellfi_controller.h"
#include "cellfi/lte/network.h"
#include "cellfi/radio/pathloss.h"
#include "cellfi/scenario/harness.h"
#include "cellfi/scenario/report.h"
#include "cellfi/sim/event_queue.h"
#include "cellfi/traffic/aggregate_load.h"

namespace {

using namespace cellfi;
using namespace cellfi::scenario;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// --- Workloads ---------------------------------------------------------------
// Each is frozen here rather than shared with bench/, so the benchmark keeps
// measuring the same inputs when the figure benches change.

ScenarioConfig Fig9Base(Technology tech, int num_aps, int clients_per_ap,
                        std::uint64_t seed) {
  // Paper Section 6.3.4 deployment (bench/fig9_common.h BaseConfig).
  ScenarioConfig cfg;
  cfg.tech = tech;
  cfg.workload = WorkloadKind::kBacklogged;
  cfg.propagation = PropagationKind::kSuburbanUhf;
  cfg.topology.area_m = 2000.0;
  cfg.topology.num_aps = num_aps;
  cfg.topology.clients_per_ap = clients_per_ap;
  cfg.topology.client_radius_m = 250.0;
  cfg.ap_power_dbm = 30.0;
  cfg.client_power_dbm = 20.0;
  cfg.lte_bandwidth = LteBandwidth::k5MHz;
  cfg.lte_tdd_config = 4;
  cfg.warmup = 3 * kSecond;
  cfg.duration = 15 * kSecond;
  cfg.seed = seed;
  return cfg;
}

std::optional<ScenarioConfig> WorkloadConfig(const std::string& name,
                                             std::uint64_t seed) {
  if (name == "fig9_cellfi") {
    // Densest Fig. 9 point, fading on.
    return Fig9Base(Technology::kCellFi, 14, 6, seed);
  }
  if (name == "users_agg") {
    // bench_users' deployment at 5,000 background users (500 per cell):
    // well below the load at which the tier starves the real clients.
    ScenarioConfig cfg = Fig9Base(Technology::kCellFi, 10, 2, seed);
    cfg.warmup = 500 * kMillisecond;
    cfg.duration = 30 * kSecond;
    cfg.aggregate_load.users_per_cell = 500;
    cfg.aggregate_load.per_user_demand_bps = 20e3;
    cfg.aggregate_load.steady_activity = 0.5;
    cfg.aggregate_load.activity_jitter = 0.2;
    cfg.aggregate_load.flash_rate_per_s = 0.02;
    cfg.aggregate_load.flash_duration_s = 2.0;
    cfg.aggregate_load.flash_multiplier = 3.0;
    return cfg;
  }
  return std::nullopt;
}

// --- Spans -------------------------------------------------------------------

/// Accumulated host time and call count at one layer boundary.
struct Span {
  double s = 0.0;
  std::uint64_t calls = 0;
};

/// Per-layer spans of one replication. Hook spans nest inside subframe
/// spans; `nested_s` lets a subframe subtract them to get its self time.
struct Trace {
  bool on = false;
  Span topology, add_node, lte_register, core_init;
  Span cqi, prach, delivered, agg_sample, sinr_probe;
  Span subframe_self;
  Distribution subframe_self_us;
  double nested_s = 0.0;

  /// Runs `f`; when tracing is on, adds its duration to `span` and to the
  /// nested total.
  template <typename F>
  decltype(auto) Time(Span& span, F&& f) {
    if (!on) return f();
    struct Close {
      Trace& trace;
      Span& span;
      Clock::time_point t0 = Clock::now();
      ~Close() {
        const double d = Seconds(t0, Clock::now());
        span.s += d;
        ++span.calls;
        trace.nested_s += d;
      }
    } close{*this, span};
    return f();
  }
};

// --- Scenario assembly (mirrors scenario/harness.cc RunLteBased) -------------

constexpr double kPrachBandwidthHz = 839 * 1250.0;
constexpr double kTau = 6.283185307179586;

struct Timings {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t events = 0;
};

ScenarioResult RunAssembled(const ScenarioConfig& cfg, Trace& tr, Timings& tm,
                            Clock::time_point start, bool simulate) {
  Topology topo;
  tr.Time(tr.topology, [&] {
    Rng rng(cfg.seed);
    topo = GenerateTopology(cfg.topology, rng);
  });

  // Every workload uses PropagationKind::kSuburbanUhf.
  static const LogDistancePathLoss suburban(3.5, 1.0);
  RadioEnvironmentConfig env_cfg;
  env_cfg.carrier_freq_hz = 600e6;
  env_cfg.shadowing_sigma_db = cfg.shadowing_sigma_db;
  env_cfg.enable_fading = cfg.enable_fading;
  env_cfg.interference_floor_db = cfg.interference_floor_db;
  env_cfg.seed = cfg.seed ^ 0xE17E17E17ull;

  Simulator sim;
  RadioEnvironment env(suburban, env_cfg);
  lte::LteNetworkConfig net_cfg;
  net_cfg.use_interference_engine = cfg.use_interference_engine;
  net_cfg.shards = cfg.shards;
  net_cfg.shard_threads = cfg.shard_threads;
  net_cfg.seed = cfg.seed ^ 0x17;
  lte::LteNetwork net(sim, env, net_cfg);

  lte::LteMacConfig mac;
  mac.bandwidth = cfg.lte_bandwidth;
  mac.tdd_config = cfg.lte_tdd_config;

  const auto add_node = [&](const RadioNode& node) {
    RadioNodeId id = 0;
    tr.Time(tr.add_node, [&] { id = env.AddNode(node); });
    return id;
  };
  std::vector<RadioNodeId> ap_radios;
  for (const Point& p : topo.aps) {
    const RadioNodeId r = add_node({.position = p, .tx_power_dbm = cfg.ap_power_dbm});
    tr.Time(tr.lte_register, [&] { net.AddCell(mac, r); });
    ap_radios.push_back(r);
  }
  std::vector<lte::UeId> ues;
  for (std::size_t u = 0; u < topo.clients.size(); ++u) {
    const RadioNodeId r =
        add_node({.position = topo.clients[u], .tx_power_dbm = cfg.client_power_dbm});
    const lte::CellId home =
        cfg.home_ap_association ? static_cast<lte::CellId>(topo.client_home_ap[u])
                                : lte::kInvalidCell;
    tr.Time(tr.lte_register, [&] { ues.push_back(net.AddUe(r, home)); });
  }

  std::unique_ptr<core::CellfiController> controller;
  tr.Time(tr.core_init, [&] {
    if (cfg.tech != Technology::kCellFi) return;
    core::CellfiControllerConfig ctl = cfg.cellfi;
    ctl.seed = cfg.seed ^ 0x51;
    controller = std::make_unique<core::CellfiController>(sim, net, ctl);
    controller->Start();
  });
  if (tr.on && net.on_cqi_report) {
    net.on_cqi_report = [&tr, inner = std::move(net.on_cqi_report)](
                            lte::CellId cell, lte::UeId ue, const CqiMeasurement& m) {
      tr.Time(tr.cqi, [&] { inner(cell, ue, m); });
    };
  }
  if (tr.on && net.on_prach) {
    net.on_prach = [&tr, inner = std::move(net.on_prach)](const lte::PrachObservation& o) {
      tr.Time(tr.prach, [&] { inner(o); });
    };
  }

  // Aggregate background tier (harness.cc, DESIGN.md §18).
  traffic::AggregateLoadConfig agg_cfg = cfg.aggregate_load;
  std::optional<traffic::AggregateLoad> agg;
  if (agg_cfg.users_per_cell > 0 && !topo.aps.empty()) {
    agg_cfg.seed = cfg.seed ^ 0xA66A;
    agg.emplace(agg_cfg);
    const int num_cells = static_cast<int>(topo.aps.size());
    const int clusters = std::max(1, agg_cfg.clusters_per_cell);
    const auto cell_index = [](int c) { return static_cast<std::size_t>(c); };
    std::vector<std::vector<int>> audible(cell_index(num_cells * clusters));
    std::vector<std::uint8_t> pair_audible(cell_index(num_cells * num_cells), 0);
    for (int c = 0; c < num_cells; ++c) {
      for (int k = 0; k < clusters; ++k) {
        const double u1 = traffic::AggregateLoad::NormalizedDraw(
            agg_cfg.seed, static_cast<std::uint64_t>(c), static_cast<std::uint64_t>(k), 0xC1);
        const double u2 = traffic::AggregateLoad::NormalizedDraw(
            agg_cfg.seed, static_cast<std::uint64_t>(c), static_cast<std::uint64_t>(k), 0xC2);
        const double r = cfg.topology.client_radius_m * std::sqrt(u1);
        const Point ap = topo.aps[cell_index(c)];
        const RadioNodeId cluster_radio = add_node(
            {.position = Point{ap.x + r * std::cos(kTau * u2), ap.y + r * std::sin(kTau * u2)},
             .tx_power_dbm = cfg.client_power_dbm});
        const double gain_to_serving = env.LinkGainDb(cluster_radio, ap_radios[cell_index(c)]);
        const double tx_dbm =
            net_cfg.prach_power_control
                ? std::min(net_cfg.prach_target_rx_dbm - gain_to_serving, cfg.client_power_dbm)
                : cfg.client_power_dbm;
        for (int o = 0; o < num_cells; ++o) {
          const double rx_dbm = tx_dbm + env.LinkGainDb(cluster_radio, ap_radios[cell_index(o)]);
          const double snr =
              rx_dbm - NoisePowerDbm(kPrachBandwidthHz,
                                     env.node(ap_radios[cell_index(o)]).noise_figure_db);
          if (snr < net_cfg.prach_detect_snr_db) continue;
          audible[cell_index(c * clusters + k)].push_back(o);
          pair_audible[cell_index(o * num_cells + c)] = 1;
        }
      }
    }
    const SimTime agg_period = static_cast<SimTime>(std::llround(agg_cfg.epoch_s * kSecond));
    auto agg_step = std::make_shared<std::function<void()>>(
        [&tr, &net, &controller, &agg, num_cells, clusters, cell_index,
         audible = std::move(audible), pair_audible = std::move(pair_audible),
         counts = std::vector<int>(cell_index(num_cells * num_cells), 0),
         epoch = std::int64_t{0}]() mutable {
          std::fill(counts.begin(), counts.end(), 0);
          for (int c = 0; c < num_cells; ++c) {
            // The generator is pure, so splitting before SetBackgroundLoad
            // (the harness splits after) cannot change what it returns.
            std::vector<int> split;
            const traffic::CellLoadSample s = tr.Time(tr.agg_sample, [&] {
              const traffic::CellLoadSample sample = agg->Sample(c, epoch);
              if (controller != nullptr) split = agg->ClusterSplit(sample.active_users);
              return sample;
            });
            net.SetBackgroundLoad(static_cast<lte::CellId>(c), s.utilization);
            if (controller == nullptr) continue;
            for (int k = 0; k < clusters; ++k) {
              if (split[cell_index(k)] == 0) continue;
              for (int o : audible[cell_index(c * clusters + k)]) {
                counts[cell_index(o * num_cells + c)] += split[cell_index(k)];
              }
            }
          }
          if (controller != nullptr) {
            for (int o = 0; o < num_cells; ++o) {
              for (int c = 0; c < num_cells; ++c) {
                if (!pair_audible[cell_index(o * num_cells + c)]) continue;
                controller->SetAggregateContenders(static_cast<lte::CellId>(o),
                                                   static_cast<lte::CellId>(c),
                                                   counts[cell_index(o * num_cells + c)]);
              }
            }
          }
          ++epoch;
        });
    sim.ScheduleAfter(0, [&sim, agg_step, agg_period] {
      (*agg_step)();
      sim.SchedulePeriodic(agg_period, [agg_step] { (*agg_step)(); });
    });
  }

  // Backlogged traffic and delivery accounting.
  std::vector<std::uint64_t> measured_bits(ues.size(), 0);
  net.on_dl_delivered = [&](lte::UeId ue, std::uint64_t bytes, SimTime now) {
    tr.Time(tr.delivered, [&] {
      if (now >= cfg.warmup) measured_bits[static_cast<std::size_t>(ue)] += 8 * bytes;
    });
  };
  sim.SchedulePeriodic(500 * kMillisecond, [&] {
    for (lte::UeId ue : ues) net.OfferDownlink(ue, 4 << 20);
  });

  net.Start();
  const Clock::time_point run_start = Clock::now();
  tm.setup_s = Seconds(start, run_start);
  if (!simulate) return {};
  if (!tr.on) {
    sim.RunUntil(cfg.duration);
  } else {
    // One subframe per RunUntil call: events at exactly `until` run, so the
    // event order is the same as a single call. A SINR probe of every UE
    // runs between subframes once per 100; run.py checks that the traced
    // outcome still equals the untraced one byte for byte.
    constexpr int kProbePeriod = 100;
    const auto subframes = static_cast<std::int64_t>(cfg.duration / kSubframeDuration);
    for (std::int64_t k = 1; k <= subframes; ++k) {
      const double nested0 = tr.nested_s;
      const Clock::time_point t0 = Clock::now();
      sim.RunUntil(k * kSubframeDuration);
      const double self = Seconds(t0, Clock::now()) - (tr.nested_s - nested0);
      tr.subframe_self.s += self;
      ++tr.subframe_self.calls;
      tr.subframe_self_us.Add(self * 1e6);
      if (k % kProbePeriod != 0) continue;
      for (lte::UeId ue : ues) tr.Time(tr.sinr_probe, [&] { net.MeasureDownlinkSinr(ue); });
    }
    sim.RunUntil(cfg.duration);
  }
  tm.run_s = Seconds(run_start, Clock::now());
  tm.events = sim.executed_events();

  // Result, as scenario/harness.cc Finalize builds it.
  ScenarioResult result;
  const double window_s = ToSeconds(cfg.duration - cfg.warmup);
  int connected = 0;
  int starved = 0;
  for (std::size_t u = 0; u < ues.size(); ++u) {
    ClientOutcome c;
    c.throughput_bps = static_cast<double>(measured_bits[u]) / window_s;
    c.attached = net.ue(ues[u]).connected_time > 0;
    c.starved = c.throughput_bps < cfg.starvation_threshold_bps;
    if (c.attached && !c.starved) ++connected;
    if (c.starved) ++starved;
    result.total_throughput_bps += c.throughput_bps;
    result.client_throughput_mbps.Add(c.throughput_bps / 1e6);
    result.clients.push_back(std::move(c));
  }
  const double n = static_cast<double>(std::max<std::size_t>(result.clients.size(), 1));
  result.fraction_connected = connected / n;
  result.fraction_starved = starved / n;
  if (controller != nullptr) {
    result.im_total_hops = controller->total_hops();
    result.im_cells_still_hopping = controller->cells_hopping_recently();
  }
  return result;
}

/// Peak resident set of this process image. VmHWM rather than getrusage:
/// ru_maxrss survives exec, so it would report the launching process's peak
/// whenever that is larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

int Usage() {
  std::cerr << "usage: cellfi_perfbench <fig9_cellfi|users_agg> <seed> "
               "<0|1|setup|library>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) return Usage();
  const std::string workload = argv[1];
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(argv[2], &end, 10);
  if (end == argv[2] || *end != '\0') return Usage();
  const std::string mode = argv[3];
  if (mode != "0" && mode != "1" && mode != "setup" && mode != "library") {
    return Usage();
  }
  const std::optional<ScenarioConfig> cfg = WorkloadConfig(workload, seed);
  if (!cfg.has_value()) return Usage();

  Trace tr;
  tr.on = mode == "1";
  Timings tm;
  const Clock::time_point start = Clock::now();
  const ScenarioResult result = mode == "library"
                                    ? RunScenario(*cfg)
                                    : RunAssembled(*cfg, tr, tm, start, mode != "setup");
  const double rep_s = Seconds(start, Clock::now());

  json::Value out;
  out["workload"] = workload;
  out["seed"] = std::to_string(seed);
  out["mode"] = mode;
  out["setup_s"] = tm.setup_s;
  if (mode == "setup") {
    std::cout << out.Dump() << "\n";
    return 0;
  }
  out["outcome"] = ResultToJson(result).Dump();
  out["fraction_connected"] = result.fraction_connected;
  out["throughput_mbps"] = result.total_throughput_bps / 1e6;
  out["hops"] = static_cast<std::int64_t>(result.im_total_hops);
  out["sim_s"] = ToSeconds(cfg->duration);
  out["rep_s"] = rep_s;
  out["run_s"] = tm.run_s;
  out["peak_rss_mb"] = PeakRssMb();
  if (tr.on) {
    const Span* spans[] = {&tr.topology,  &tr.add_node,   &tr.lte_register,
                           &tr.core_init, &tr.subframe_self, &tr.cqi,
                           &tr.prach,     &tr.delivered,  &tr.agg_sample,
                           &tr.sinr_probe};
    double attributed = 0.0;
    for (const Span* s : spans) attributed += s->s;
    const auto count = [](std::uint64_t n) { return static_cast<std::int64_t>(n); };
    json::Value& l = out["layers"];
    l["scenario.topology_s"] = tr.topology.s;
    l["radio.add_node_s"] = tr.add_node.s;
    l["radio.add_node_calls"] = count(tr.add_node.calls);
    l["lte.register_s"] = tr.lte_register.s;
    l["core.init_s"] = tr.core_init.s;
    l["lte.subframes"] = count(tr.subframe_self.calls);
    l["lte.subframe_self_s"] = tr.subframe_self.s;
    l["lte.subframe_p50_us"] = tr.subframe_self_us.Percentile(0.50);
    l["lte.subframe_p99_us"] = tr.subframe_self_us.Percentile(0.99);
    l["core.cqi_reports"] = count(tr.cqi.calls);
    l["core.cqi_report_s"] = tr.cqi.s;
    l["core.prach_observations"] = count(tr.prach.calls);
    l["core.prach_s"] = tr.prach.s;
    l["core.hops"] = count(result.im_total_hops);
    l["traffic.delivered_tbs"] = count(tr.delivered.calls);
    l["traffic.delivered_s"] = tr.delivered.s;
    l["traffic.agg_samples"] = count(tr.agg_sample.calls);
    l["traffic.agg_sample_s"] = tr.agg_sample.s;
    l["radio.sinr_probes"] = count(tr.sinr_probe.calls);
    l["radio.sinr_probe_us"] =
        tr.sinr_probe.calls > 0 ? tr.sinr_probe.s * 1e6 / static_cast<double>(tr.sinr_probe.calls)
                                : 0.0;
    l["sim.events"] = count(tm.events);
    l["sim.host_us_per_event"] =
        tm.events > 0 ? tm.run_s * 1e6 / static_cast<double>(tm.events) : 0.0;
    l["trace.unattributed_s"] = rep_s - attributed;
  }
  std::cout << out.Dump() << "\n";
  return 0;
}
