// Fig. 1: single-cell outdoor range experiment.
//  (a) TCP throughput vs distance     (paper: ~15 Mbps near, >=1 Mbps at
//      85 % of locations, range ~1.3 km at 36 dBm EIRP)
//  (b) CDF of coding rate used        (paper: median 1/2, uplink ~ downlink)
//  (c) CDF of fraction of channel     (paper: uplink mostly 1 RB - TCP ACKs)
//  plus the Section 3.1 HARQ observation: ~25 % of blocks beyond 500 m
//  retransmitted.
#include <iostream>

#include "cellfi/common/stats.h"
#include "cellfi/common/table.h"
#include "cellfi/lte/network.h"
#include "cellfi/phy/cqi_mcs.h"
#include "cellfi/radio/pathloss.h"

using namespace cellfi;

namespace {

struct PointResult {
  double distance_m = 0;
  double tcp_mbps = 0;
  double harq_fraction = 0;
  std::vector<double> dl_rates, ul_rates, dl_fracs, ul_fracs;
};

/// One sample per delivered block: its code rate and its fraction of the
/// channel, from the UE's per-CQI and per-width block counts.
void ExpandCounts(const lte::DeliveryCounts& counts, std::vector<double>& rates,
                  std::vector<double>& fracs) {
  for (int cqi = 0; cqi <= kMaxCqi; ++cqi) {
    const std::uint64_t n = counts.by_cqi[static_cast<std::size_t>(cqi)];
    if (n > 0) rates.insert(rates.end(), n, CqiCodeRate(cqi));
  }
  const std::size_t num_subchannels = counts.by_width.size() - 1;
  for (std::size_t width = 0; width <= num_subchannels; ++width) {
    const std::uint64_t n = counts.by_width[width];
    if (n > 0) {
      fracs.insert(fracs.end(), n,
                   static_cast<double>(width) / static_cast<double>(num_subchannels));
    }
  }
}

PointResult RunPoint(double distance, std::uint64_t seed) {
  HataUrbanPathLoss pathloss(15.0, 1.5);
  RadioEnvironmentConfig env_cfg;
  env_cfg.carrier_freq_hz = 600e6;
  env_cfg.shadowing_sigma_db = 6.0;
  env_cfg.enable_fading = true;
  env_cfg.seed = seed;
  Simulator sim;
  RadioEnvironment env(pathloss, env_cfg);

  // 36 dBm EIRP: 29 dBm PA + ~7 dBi sector antenna aimed along the path.
  const RadioNodeId ap = env.AddNode({.position = {0, 0},
                                      .antenna = Antenna::Sector(7.0, 0.0, 2.1),
                                      .tx_power_dbm = 29.0});
  const RadioNodeId ue_radio = env.AddNode({.position = {distance, 0},
                                            .tx_power_dbm = 20.0});

  lte::LteNetworkConfig net_cfg;
  net_cfg.seed = seed ^ 0xF1;
  lte::LteNetwork net(sim, env, net_cfg);
  lte::LteMacConfig mac;
  mac.bandwidth = LteBandwidth::k5MHz;
  mac.tdd_config = 4;
  net.AddCell(mac, ap);
  const lte::UeId ue = net.AddUe(ue_radio);

  std::uint64_t delivered = 0;
  SimTime measure_from = 500 * kMillisecond;
  net.on_dl_delivered = [&](lte::UeId, std::uint64_t bytes, SimTime now) {
    if (now >= measure_from) delivered += bytes;
  };
  sim.SchedulePeriodic(200 * kMillisecond, [&] { net.OfferDownlink(ue, 2 << 20); });
  net.Start();
  const SimTime total = 4 * kSecond;
  sim.RunUntil(total);

  PointResult r;
  r.distance_m = distance;
  // TCP goodput: MAC goodput minus TCP/IP header share on 1500 B segments.
  r.tcp_mbps = static_cast<double>(delivered) * 8.0 * (1460.0 / 1500.0) /
               ToSeconds(total - measure_from) / 1e6;
  if (net.ue(ue).serving != lte::kInvalidCell) {
    const auto* ctx = net.cell(net.ue(ue).serving).FindUe(ue);
    if (ctx != nullptr) {
      ExpandCounts(ctx->dl_blocks, r.dl_rates, r.dl_fracs);
      ExpandCounts(ctx->ul_blocks, r.ul_rates, r.ul_fracs);
      r.harq_fraction = ctx->dl_total_blocks
                            ? static_cast<double>(ctx->dl_harq_retx_blocks) /
                                  static_cast<double>(ctx->dl_total_blocks)
                            : 0.0;
    }
  }
  return r;
}

void PrintCdf(std::ostream& out, const std::string& title, Distribution& dl,
              Distribution& ul) {
  Table t({"percentile", "downlink", "uplink"});
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90}) {
    t.AddRow({Table::Num(q, 2), dl.empty() ? "-" : Table::Num(dl.Percentile(q), 3),
              ul.empty() ? "-" : Table::Num(ul.Percentile(q), 3)});
  }
  t.Print(out, title);
}

}  // namespace

int main() {
  std::cout << "CellFi reproduction -- Fig. 1 (LTE range experiment, 36 dBm EIRP, "
               "5 MHz TDD cfg 4, Hata urban @600 MHz)\n\n";

  Distribution dl_rates, ul_rates, dl_fracs, ul_fracs;
  Distribution tput_all;
  Summary harq_near, harq_far;
  int locations = 0, locations_above_1mbps = 0;

  Table a({"distance_m", "tcp_mbps", "harq_retx_frac"});
  for (double d = 100; d <= 1400; d += 100) {
    Summary tput, harq;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const PointResult r = RunPoint(d, seed * 101 + static_cast<std::uint64_t>(d));
      tput.Add(r.tcp_mbps);
      harq.Add(r.harq_fraction);
      dl_rates.AddAll(r.dl_rates);
      ul_rates.AddAll(r.ul_rates);
      dl_fracs.AddAll(r.dl_fracs);
      ul_fracs.AddAll(r.ul_fracs);
      ++locations;
      if (r.tcp_mbps >= 1.0) ++locations_above_1mbps;
      tput_all.Add(r.tcp_mbps);
      (d > 500 ? harq_far : harq_near).Add(r.harq_fraction);
    }
    a.AddRow({Table::Num(d, 0), Table::Num(tput.mean(), 2), Table::Num(harq.mean(), 2)});
  }
  a.Print(std::cout, "Fig. 1(a): TCP throughput vs distance");

  std::cout << "Locations with >= 1 Mbps: " << locations_above_1mbps << "/" << locations
            << " (" << Table::Num(100.0 * locations_above_1mbps / locations, 0)
            << "%; paper: 85% out to 1.3 km)\n\n";

  PrintCdf(std::cout, "Fig. 1(b): coding rate CDF (paper: median ~0.5)", dl_rates,
           ul_rates);
  PrintCdf(std::cout,
           "Fig. 1(c): fraction of channel used CDF (paper: uplink ~1 RB for ACKs)",
           dl_fracs, ul_fracs);

  std::cout << "HARQ retransmission fraction: <=500 m " << Table::Num(harq_near.mean(), 2)
            << ", >500 m " << Table::Num(harq_far.mean(), 2)
            << " (paper: ~25% of packets beyond 500 m use HARQ)\n";
  return 0;
}
