#include "cellfi/core/channel_selector.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace cellfi::core {
namespace {

using tvws::DatabaseConfig;
using tvws::Incumbent;
using tvws::PawsClient;
using tvws::PawsServer;
using tvws::Regulatory;
using tvws::SpectrumDatabase;

const GeoLocation kHere{.latitude = 47.64, .longitude = -122.13};

SimTime TimeOf(const std::vector<TimelineEvent>& tl, const std::string& what,
               int occurrence = 0) {
  int seen = 0;
  for (const auto& e : tl) {
    if (e.what == what && seen++ == occurrence) return e.time;
  }
  return -1;
}

class SelectorFixture : public ::testing::Test {
 protected:
  SelectorFixture()
      : server_(db_), transport_(sim_, server_),
        client_({.serial_number = "ap"}, Regulatory::kUs),
        session_(sim_, client_, transport_) {}

  ChannelSelector MakeSelector(const NetworkListenScanner& scanner,
                               ChannelSelectorConfig cfg = {}) {
    cfg.location = kHere;
    return ChannelSelector(sim_, session_, scanner, cfg);
  }

  Simulator sim_;
  SpectrumDatabase db_;
  PawsServer server_;
  tvws::InProcessTransport transport_;
  PawsClient client_;
  tvws::PawsSession session_;
  QuietScanner quiet_;
};

TEST_F(SelectorFixture, AcquiresChannelAfterReboot) {
  auto sel = MakeSelector(quiet_);
  sel.Start();
  sim_.RunUntil(200 * kSecond);
  EXPECT_EQ(sel.state(), ApRadioState::kOn);
  ASSERT_TRUE(sel.current_channel().has_value());
  // Reboot takes 96 s from t = 0.
  EXPECT_EQ(TimeOf(sel.timeline(), "ap_on"), 96 * kSecond);
  // Clients reconnect 56 s later.
  EXPECT_EQ(TimeOf(sel.timeline(), "client_connected"), (96 + 56) * kSecond);
  EXPECT_TRUE(sel.clients_connected());
}

TEST_F(SelectorFixture, VacatesWithinEtsiBudgetOnLeaseLoss) {
  auto sel = MakeSelector(quiet_);
  sel.Start();
  sim_.RunUntil(200 * kSecond);
  ASSERT_EQ(sel.state(), ApRadioState::kOn);
  const int used = sel.current_channel()->channel.number;

  // Remove the channel from the database at t = 300 s (Fig. 6 scenario).
  sim_.ScheduleAt(300 * kSecond, [&] {
    db_.AddIncumbent({.id = "mic", .channel = used, .location = kHere,
                      .protection_radius_m = 10'000.0});
  });
  // Block all other channels too so the AP cannot simply retune.
  for (int ch = 14; ch <= 51; ++ch) {
    if (ch == used) continue;
    db_.AddIncumbent({.id = "blk" + std::to_string(ch), .channel = ch,
                      .location = kHere, .protection_radius_m = 10'000.0});
  }

  sim_.RunUntil(400 * kSecond);
  EXPECT_EQ(sel.state(), ApRadioState::kOff);
  const SimTime off_at = TimeOf(sel.timeline(), "ap_off");
  ASSERT_GT(off_at, 300 * kSecond);
  // ETSI EN 301 598: stop within 60 s. Testbed measured ~2 s.
  EXPECT_LE(off_at - 300 * kSecond, 60 * kSecond);
  EXPECT_LE(off_at - 300 * kSecond, 3 * kSecond);
  // Clients stop when the AP stops (grants cease).
  EXPECT_FALSE(sel.clients_connected());
  EXPECT_GE(TimeOf(sel.timeline(), "client_stopped"), off_at - kSecond);
}

TEST_F(SelectorFixture, ReacquiresAfterChannelRestored) {
  auto sel = MakeSelector(quiet_);
  sel.Start();
  sim_.RunUntil(200 * kSecond);
  const int used = sel.current_channel()->channel.number;
  for (int ch = 14; ch <= 51; ++ch) {
    db_.AddIncumbent({.id = "b" + std::to_string(ch), .channel = ch, .location = kHere,
                      .protection_radius_m = 10'000.0, .start = 300 * kSecond,
                      .stop = 600 * kSecond});
  }
  sim_.RunUntil(1000 * kSecond);
  EXPECT_EQ(sel.state(), ApRadioState::kOn);
  // The AP reboots once the channel returns at 600 s: on-air ~696 s,
  // clients ~752 s.
  const SimTime on_again = TimeOf(sel.timeline(), "ap_on", 1);
  EXPECT_GE(on_again, 600 * kSecond + 96 * kSecond);
  EXPECT_LE(on_again, 600 * kSecond + 96 * kSecond + 2 * kSecond);
  EXPECT_EQ(TimeOf(sel.timeline(), "client_connected", 1), on_again + 56 * kSecond);
  (void)used;
}

class ScriptedScanner final : public NetworkListenScanner {
 public:
  double OccupancyScore(int channel) const override {
    if (channel == 14) return 0.9;  // busy, non-CellFi
    if (channel == 15) return 0.5;  // busy, CellFi
    return 0.0;                     // idle
  }
  bool IsCellFiOccupied(int channel) const override { return channel == 15; }
};

TEST_F(SelectorFixture, PrefersIdleChannel) {
  ScriptedScanner scanner;
  auto sel = MakeSelector(scanner);
  sel.Start();
  sim_.RunUntil(200 * kSecond);
  ASSERT_TRUE(sel.current_channel().has_value());
  EXPECT_GE(sel.current_channel()->channel.number, 16);  // skips busy 14/15
}

TEST_F(SelectorFixture, PrefersCellFiOccupiedOverForeign) {
  // Leave only channels 14 (foreign-occupied) and 15 (CellFi-occupied).
  for (int ch = 16; ch <= 51; ++ch) {
    db_.AddIncumbent({.id = "b" + std::to_string(ch), .channel = ch, .location = kHere,
                      .protection_radius_m = 10'000.0});
  }
  ScriptedScanner scanner;
  auto sel = MakeSelector(scanner);
  sel.Start();
  sim_.RunUntil(200 * kSecond);
  ASSERT_TRUE(sel.current_channel().has_value());
  EXPECT_EQ(sel.current_channel()->channel.number, 15);
}

TEST_F(SelectorFixture, RequiresChannelValidForUplinkAndDownlink) {
  // Master sees everything; if the DB blocked clients (slave) everywhere,
  // no channel should be picked. Simulate by an all-blocking DB.
  for (int ch = 14; ch <= 51; ++ch) {
    db_.AddIncumbent({.id = "b" + std::to_string(ch), .channel = ch, .location = kHere,
                      .protection_radius_m = 10'000.0});
  }
  auto sel = MakeSelector(quiet_);
  sel.Start();
  sim_.RunUntil(300 * kSecond);
  EXPECT_EQ(sel.state(), ApRadioState::kOff);
  EXPECT_FALSE(sel.current_channel().has_value());
}

TEST_F(SelectorFixture, CallbacksFire) {
  auto sel = MakeSelector(quiet_);
  int acquired = 0, lost = 0;
  sel.on_channel_acquired = [&](const ChannelAvailability&) { ++acquired; };
  sel.on_channel_lost = [&] { ++lost; };
  sel.Start();
  sim_.RunUntil(200 * kSecond);
  EXPECT_EQ(acquired, 1);
  for (int ch = 14; ch <= 51; ++ch) {
    db_.AddIncumbent({.id = "b" + std::to_string(ch), .channel = ch, .location = kHere,
                      .protection_radius_m = 10'000.0});
  }
  sim_.RunUntil(300 * kSecond);
  EXPECT_EQ(lost, 1);
}

TEST_F(SelectorFixture, StopAndCrashCyclesLeaveNoStaleCancellations) {
  // Three crashes and two lease losses, each after clients have connected,
  // so every one of them finds its reacquire step already fired. The run
  // ends 90 s into the last crash's reboot: polling has stopped, and every
  // event a Cancel marked (vacate deadline, request timeouts) has popped.
  auto sel = MakeSelector(quiet_);
  auto crash_at = [&](SimTime t) {
    sim_.ScheduleAt(t, [&] {
      session_.Reset();
      sel.Crash();
    });
  };
  auto block_all = [&](SimTime start, SimTime stop) {
    for (int ch = 14; ch <= 51; ++ch) {
      db_.AddIncumbent({.id = "b" + std::to_string(ch) + "@" + std::to_string(start),
                        .channel = ch, .location = kHere, .protection_radius_m = 10'000.0,
                        .start = start, .stop = stop});
    }
  };
  crash_at(200 * kSecond);
  block_all(500 * kSecond, 600 * kSecond);
  crash_at(800 * kSecond);
  block_all(1100 * kSecond, 1200 * kSecond);
  crash_at(1500 * kSecond);
  sel.Start();
  sim_.RunUntil(1590 * kSecond);

  EXPECT_EQ(sel.crash_count(), 3u);
  EXPECT_EQ(sel.state(), ApRadioState::kOff);
  for (int cycle = 0; cycle < 5; ++cycle) {
    EXPECT_LT(TimeOf(sel.timeline(), "client_connected", cycle), 1500 * kSecond) << cycle;
    EXPECT_GE(TimeOf(sel.timeline(), "client_connected", cycle), 0) << cycle;
  }
  EXPECT_GE(TimeOf(sel.timeline(), "ap_off", 1), 1100 * kSecond);
  EXPECT_EQ(sim_.pending_cancellations(), 0u);
}

}  // namespace
}  // namespace cellfi::core
