// End-to-end CellFi test: two interfering cells, live interference
// management over real PRACH/CQI sensing.
#include "cellfi/core/cellfi_controller.h"

#include <gtest/gtest.h>

#include "cellfi/radio/pathloss.h"

namespace cellfi::core {
namespace {

using lte::CellId;
using lte::LteMacConfig;
using lte::LteNetworkConfig;
using lte::UeId;

class ControllerFixture : public ::testing::Test {
 protected:
  ControllerFixture() : env_(pathloss_, EnvConfig()), net_(sim_, env_, NetConfig()) {}

  static RadioEnvironmentConfig EnvConfig() {
    RadioEnvironmentConfig c;
    c.carrier_freq_hz = 600e6;
    c.shadowing_sigma_db = 0.0;
    c.enable_fading = false;
    c.seed = 5;
    return c;
  }

  static LteNetworkConfig NetConfig() {
    LteNetworkConfig c;
    c.seed = 9;
    return c;
  }

  CellId AddCellAt(Point p) {
    const RadioNodeId r = env_.AddNode(
        {.position = p, .antenna = Antenna::Omni(6.0), .tx_power_dbm = 30.0});
    LteMacConfig mac;
    mac.bandwidth = LteBandwidth::k5MHz;
    return net_.AddCell(mac, r);
  }

  UeId AddUeAt(Point p) {
    const RadioNodeId r = env_.AddNode({.position = p, .tx_power_dbm = 20.0});
    return net_.AddUe(r);
  }

  HataUrbanPathLoss pathloss_;
  Simulator sim_;
  RadioEnvironment env_;
  lte::LteNetwork net_;
};

TEST_F(ControllerFixture, DetectorsAreKeptPerCellAcrossHandovers) {
  const CellId a = AddCellAt({0, 0});
  const CellId b = AddCellAt({700, 0});
  const UeId first = AddUeAt({100, 0});
  const UeId ue = AddUeAt({300, 0});
  CellfiController controller(sim_, net_, {});
  const auto report = [&](CellId cell, UeId id, int cqi) {
    CqiMeasurement m;
    m.wideband_cqi = cqi;
    m.subband_cqi.assign(13, cqi);
    net_.on_cqi_report(cell, id, m);
  };

  EXPECT_EQ(controller.detector(a, ue), nullptr);
  // The higher UE id reports first, so the cell's index grows past an id
  // that has no detector yet.
  for (int r = 0; r < 20; ++r) report(a, ue, 10);
  EXPECT_EQ(controller.detector(a, first), nullptr);
  report(a, first, 12);
  ASSERT_NE(controller.detector(a, first), nullptr);
  EXPECT_EQ(controller.detector(a, first)->MaxCqi(0), 12);

  // Handover to b: a fresh detector there; a's stays as it was.
  for (int r = 0; r < 20; ++r) report(b, ue, 4);
  ASSERT_NE(controller.detector(b, ue), nullptr);
  EXPECT_EQ(controller.detector(b, ue)->MaxCqi(0), 4);
  EXPECT_EQ(controller.detector(a, ue)->MaxCqi(0), 10);

  // Back to a: the old detector resumes. Its window still holds the CQI 10
  // samples, so a CQI 3 report is low against them (3 < 0.6 * 10); a fresh
  // detector would take 3 as its maximum.
  report(a, ue, 3);
  const CqiInterferenceDetector* resumed = controller.detector(a, ue);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->MaxCqi(0), 10);
  EXPECT_EQ(resumed->LowStreak(0), 1);
  EXPECT_EQ(controller.detector(b, ue)->MaxCqi(0), 4);
}

TEST_F(ControllerFixture, SharesConvergeAndOverlapDisappears) {
  // Two cells 700 m apart with cell-edge clients between them: heavy mutual
  // interference under plain LTE.
  const CellId c0 = AddCellAt({0, 0});
  const CellId c1 = AddCellAt({700, 0});
  std::vector<UeId> ues;
  ues.push_back(AddUeAt({310, 30}));   // c0, strongly exposed to c1
  ues.push_back(AddUeAt({-150, 0}));   // c0, protected
  ues.push_back(AddUeAt({390, -30}));  // c1, strongly exposed to c0
  ues.push_back(AddUeAt({850, 0}));    // c1, protected

  CellfiControllerConfig cfg;
  cfg.seed = 3;
  cfg.detection_probability = 0.8;
  cfg.false_positive_rate = 0.02;
  CellfiController controller(sim_, net_, cfg);
  controller.Start();
  net_.Start();

  sim_.RunUntil(500 * kMillisecond);
  for (UeId ue : ues) net_.OfferDownlink(ue, 256 << 20);
  sim_.RunUntil(30 * kSecond);

  // PRACH sensing with open-loop power control: each cell hears its own
  // two clients plus the neighbour's exposed midpoint client.
  EXPECT_GE(controller.sensor(c0).EstimateContenders(sim_.Now()), 3);
  EXPECT_GE(controller.sensor(c1).EstimateContenders(sim_.Now()), 3);
  EXPECT_EQ(controller.sensor(c0).OwnActive(sim_.Now()), 2);
  EXPECT_EQ(controller.sensor(c1).OwnActive(sim_.Now()), 2);

  // Shares follow S_i = N_i * S / NP_i.
  const int owned0 = controller.manager(c0).owned_count();
  const int owned1 = controller.manager(c1).owned_count();
  EXPECT_GE(owned0, 5);
  EXPECT_LE(owned0, 9);
  EXPECT_GE(owned1, 5);
  EXPECT_LE(owned1, 9);

  // With shares summing above S the masks cannot be fully disjoint; the
  // paper's Section 5.4 "incorrect share" case applies: the scheduler
  // routes exposed clients around contested subchannels and the system is
  // stable. What must hold: overlap is no more than the unavoidable
  // excess, and no cell keeps hopping.
  int overlap = 0;
  for (int s = 0; s < 13; ++s) {
    if (controller.manager(c0).mask()[static_cast<std::size_t>(s)] &&
        controller.manager(c1).mask()[static_cast<std::size_t>(s)]) {
      ++overlap;
    }
  }
  EXPECT_LE(overlap, std::max(0, owned0 + owned1 - 13) + 1);
  EXPECT_LE(controller.cells_hopping_recently(), 1);

  // The exposed clients must still receive service (the whole point of the
  // interference management): no starvation.
  for (UeId ue : {ues[0], ues[2]}) {
    const auto* ctx = net_.cell(net_.ue(ue).serving).FindUe(ue);
    ASSERT_NE(ctx, nullptr);
    EXPECT_GT(ctx->dl_delivered_bits, std::uint64_t{3} * 1000 * 1000 * 10);  // > 1 Mbps avg
  }
}

TEST_F(ControllerFixture, CellFiServesCellEdgeClientsPlainLteStarves) {
  const CellId c0 = AddCellAt({0, 0});
  const CellId c1 = AddCellAt({600, 0});
  (void)c0;
  (void)c1;
  // Both clients sit mid-way: catastrophic SINR when both cells transmit on
  // the same subchannels.
  const UeId edge0 = AddUeAt({280, 30});
  const UeId edge1 = AddUeAt({320, -30});

  auto run_and_measure = [&](bool with_cellfi) {
    Simulator sim;
    RadioEnvironment env(pathloss_, EnvConfig());
    lte::LteNetwork net(sim, env, NetConfig());
    const RadioNodeId r0 = env.AddNode(
        {.position = {0, 0}, .antenna = Antenna::Omni(6.0), .tx_power_dbm = 30.0});
    const RadioNodeId r1 = env.AddNode(
        {.position = {600, 0}, .antenna = Antenna::Omni(6.0), .tx_power_dbm = 30.0});
    LteMacConfig mac;
    mac.bandwidth = LteBandwidth::k5MHz;
    net.AddCell(mac, r0);
    net.AddCell(mac, r1);
    const RadioNodeId u0 = env.AddNode({.position = {280, 30}, .tx_power_dbm = 20.0});
    const RadioNodeId u1 = env.AddNode({.position = {320, -30}, .tx_power_dbm = 20.0});
    const UeId ue0 = net.AddUe(u0);
    const UeId ue1 = net.AddUe(u1);

    std::unique_ptr<CellfiController> controller;
    if (with_cellfi) {
      CellfiControllerConfig cfg;
      cfg.seed = 17;
      controller = std::make_unique<CellfiController>(sim, net, cfg);
      controller->Start();
    }
    net.Start();
    sim.RunUntil(500 * kMillisecond);
    net.OfferDownlink(ue0, 256 << 20);
    net.OfferDownlink(ue1, 256 << 20);
    sim.RunUntil(20 * kSecond);

    std::uint64_t bits = 0;
    for (std::size_t c = 0; c < net.cell_count(); ++c) {
      for (const auto& ctx : net.cell(static_cast<CellId>(c)).ues()) {
        if (ctx->id() == ue0 || ctx->id() == ue1) bits += ctx->dl_delivered_bits;
      }
    }
    return static_cast<double>(bits) / 19.5 / 1e6;  // Mbps total
  };

  const double plain = run_and_measure(false);
  const double cellfi = run_and_measure(true);
  // CellFi must clearly beat uncoordinated LTE for these edge clients.
  EXPECT_GT(cellfi, plain * 1.3);
  (void)edge0;
  (void)edge1;
}

}  // namespace
}  // namespace cellfi::core
