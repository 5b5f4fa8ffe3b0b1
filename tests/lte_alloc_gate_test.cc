// Allocation gate (DESIGN.md §21): a steady-state LTE subframe makes no
// heap allocation. Plans, scheduler output, ranking scratch and per-UE
// delivery statistics are all reused in place, and periodic events re-arm
// without allocating, so once a network has warmed up, running it touches
// the heap zero times. Registering radio nodes allocates O(n) bytes in
// total: link rows are sized on a receiver's first query, not per AddNode.
// A CQI detector keeps its candidates in one ring for all sub-bands, so a
// paper-sized detector stays within a few KiB and stops allocating once
// its ring has grown to the CQI range. A UE's first CQI measurement sizes
// its two vectors once.
//
// This binary replaces the global operator new/delete with a counting pair,
// which is why it is its own executable. Sanitizer builds own operator new
// themselves, so there the replacement is compiled out and the test skips.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "cellfi/common/rng.h"
#include "cellfi/core/cqi_detector.h"
#include "cellfi/lte/network.h"
#include "cellfi/phy/cqi_report.h"
#include "cellfi/radio/pathloss.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CELLFI_ALLOC_GATE_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CELLFI_ALLOC_GATE_SANITIZED 1
#endif
#endif

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

#ifndef CELLFI_ALLOC_GATE_SANITIZED
namespace {
// Out of line so the compiler never pairs an inlined operator delete's
// free() with the operator new it sees at the call site.
[[gnu::noinline]] void ReleaseBlock(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { ReleaseBlock(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
#endif

namespace cellfi::lte {
namespace {

struct GateCase {
  const char* name;
  SchedulerType scheduler;
  double background_demand;
};

std::string GateName(const ::testing::TestParamInfo<GateCase>& param) {
  return param.param.name;
}
void PrintTo(const GateCase& gate, std::ostream* os) { *os << gate.name; }

class SteadyStateSubframeTest : public ::testing::TestWithParam<GateCase> {};

TEST_P(SteadyStateSubframeTest, AllocatesNothing) {
#ifdef CELLFI_ALLOC_GATE_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes replace operator new; the counting "
                  "replacement is compiled out";
#else
  const GateCase& gate = GetParam();
  constexpr int kCells = 14;
  constexpr int kUesPerCell = 6;

  HataUrbanPathLoss pathloss(15.0, 1.5);
  RadioEnvironmentConfig env_cfg;
  env_cfg.carrier_freq_hz = 600e6;
  env_cfg.shadowing_sigma_db = 4.0;
  env_cfg.enable_fading = true;
  env_cfg.seed = 5;
  RadioEnvironment env(pathloss, env_cfg);
  Simulator sim;
  LteNetworkConfig net_cfg;
  net_cfg.seed = 9;
  LteNetwork net(sim, env, net_cfg);

  // Two rows of seven APs 500 m apart; each AP's six clients sit 60-110 m
  // away and are pinned to it, so no client hands over, detaches or
  // re-attaches inside the measured window.
  LteMacConfig mac;
  mac.bandwidth = LteBandwidth::k5MHz;
  mac.tdd_config = 4;
  mac.scheduler = gate.scheduler;
  std::vector<UeId> ues;
  for (int c = 0; c < kCells; ++c) {
    const Point ap{500.0 * (c % 7), 500.0 * (c / 7)};
    const CellId cell = net.AddCell(
        mac, env.AddNode({.position = ap, .antenna = Antenna::Omni(6.0), .tx_power_dbm = 30.0}));
    if (gate.background_demand > 0.0) net.SetBackgroundLoad(cell, gate.background_demand);
    for (int u = 0; u < kUesPerCell; ++u) {
      const double r = 60.0 + 10.0 * u;
      const double angle = 1.047 * u;
      const RadioNodeId radio = env.AddNode(
          {.position = {ap.x + r * std::cos(angle), ap.y + r * std::sin(angle)},
           .tx_power_dbm = 20.0});
      ues.push_back(net.AddUe(radio, cell));
    }
  }

  // Backlogged downlink: every client's queue is refilled far beyond what
  // its cell can send between refills.
  sim.SchedulePeriodic(100 * kMillisecond, [&net, &ues] {
    for (UeId ue : ues) net.OfferDownlink(ue, 4 << 20);
  });
  std::uint64_t delivered = 0;
  net.on_dl_delivered = [&delivered](UeId, std::uint64_t bytes, SimTime) {
    delivered += bytes;
  };
  net.Start();

  const SimTime warmup = 2 * kSecond;
  const SimTime window = 1000 * kSubframeDuration;
  sim.RunUntil(warmup);
  const std::uint64_t events_before = sim.executed_events();
  const std::uint64_t delivered_before = delivered;

  g_allocations.store(0);
  g_counting.store(true);
  sim.RunUntil(warmup + window);
  g_counting.store(false);
  const std::uint64_t allocations = g_allocations.load();

  // The window really ran loaded subframes.
  EXPECT_GE(sim.executed_events() - events_before, 1000u);
  EXPECT_GT(delivered, delivered_before);
  for (UeId ue : ues) EXPECT_EQ(net.ue(ue).state, UeState::kConnected) << ue;
  EXPECT_EQ(allocations, 0u) << "heap allocations over 1000 steady-state subframes";
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, SteadyStateSubframeTest,
    ::testing::Values(GateCase{"ProportionalFair", SchedulerType::kProportionalFair, 0.0},
                      GateCase{"RoundRobin", SchedulerType::kRoundRobin, 0.0},
                      GateCase{"MaxCqi", SchedulerType::kMaxCqi, 0.0},
                      GateCase{"ProportionalFairBackground", SchedulerType::kProportionalFair,
                               0.3}),
    GateName);

TEST(RadioRegistrationTest, AllocatesLinearBytes) {
#ifdef CELLFI_ALLOC_GATE_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes replace operator new; the counting "
                  "replacement is compiled out";
#else
  constexpr int kNodes = 512;
  HataUrbanPathLoss pathloss(15.0, 1.5);
  RadioEnvironment env(pathloss, RadioEnvironmentConfig{});
  g_allocations.store(0);
  g_bytes.store(0);
  g_counting.store(true);
  for (int i = 0; i < kNodes; ++i) {
    env.AddNode({.position = {25.0 * (i % 32), 25.0 * (i / 32)}, .tx_power_dbm = 20.0});
  }
  g_counting.store(false);
  EXPECT_EQ(env.node_count(), static_cast<std::size_t>(kNodes));
  EXPECT_LT(g_bytes.load(), 1024u * kNodes)
      << "bytes allocated registering " << kNodes << " nodes (" << g_allocations.load()
      << " allocations)";
  // The first query sizes one receiver's row, and only that row.
  g_bytes.store(0);
  g_counting.store(true);
  const double gain = env.LinkGainDb(1, 0);
  g_counting.store(false);
  EXPECT_TRUE(std::isfinite(gain));
  EXPECT_LT(g_bytes.load(), 64u * kNodes) << "bytes allocated by the first query";
#endif
}

TEST(CqiDetectorMemoryTest, PaperDetectorStaysSmall) {
#ifdef CELLFI_ALLOC_GATE_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes replace operator new; the counting "
                  "replacement is compiled out";
#else
  constexpr int kBands = 13;
  Rng rng(17);
  std::vector<int> report(kBands);
  auto next_report = [&] {
    for (int& cqi : report) cqi = static_cast<int>(rng.UniformInt(0, 15));
  };
  g_allocations.store(0);
  g_bytes.store(0);
  g_counting.store(true);
  core::CqiInterferenceDetector detector(kBands, {.max_window = 500});
  for (int r = 0; r < 1000; ++r) {
    next_report();
    detector.AddReport(report);
  }
  g_counting.store(false);
  EXPECT_LT(g_bytes.load(), 4096u) << "bytes allocated by construction and 1,000 reports ("
                                   << g_allocations.load() << " allocations)";

  // CQI spans 0..15, so no band ever holds more than 16 candidates. The
  // reports above have grown the ring to 16 slots per band (3,276 B in
  // six blocks), so from here on reports never touch the heap.
  g_allocations.store(0);
  g_counting.store(true);
  for (int r = 0; r < 10000; ++r) {
    next_report();
    detector.AddReport(report);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u) << "heap allocations over the next 10,000 reports";
#endif
}

TEST(CqiMeasurerAllocTest, FirstMeasureSizesItsVectorsOnce) {
#ifdef CELLFI_ALLOC_GATE_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes replace operator new; the counting "
                  "replacement is compiled out";
#else
  constexpr int kBands = 13;
  std::vector<double> sinr_db(kBands);
  for (int s = 0; s < kBands; ++s) sinr_db[static_cast<std::size_t>(s)] = -3.0 + 1.7 * s;
  CqiMeasurer measurer;
  g_allocations.store(0);
  g_counting.store(true);
  const int first = measurer.Measure(sinr_db, 3.0, false).decoded.subband_cqi.at(12);
  g_counting.store(false);
  // One block for the stored SINRs, one for the sub-band CQIs.
  EXPECT_LE(g_allocations.load(), 2u) << "allocations by a UE's first measurement";
  EXPECT_GT(first, 0);

  // New SINRs of the same width (a miss) reuse both blocks.
  sinr_db[4] += 6.0;
  g_allocations.store(0);
  g_counting.store(true);
  measurer.Measure(sinr_db, 3.0, false);
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u) << "allocations by a later measurement";
#endif
}

}  // namespace
}  // namespace cellfi::lte
