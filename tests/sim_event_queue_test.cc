#include "cellfi/sim/event_queue.h"

#include <vector>

#include <gtest/gtest.h>

namespace cellfi {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, SameTimestampFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);

  // A periodic occurrence takes its place in the same-time order when the
  // previous one's callback returns: after an event its callback scheduled
  // for the same instant, before one scheduled later.
  Simulator periodic_sim;
  std::vector<int> periodic_order;
  periodic_sim.ScheduleAt(10, [&] { periodic_order.push_back(1); });
  const EventId chain = periodic_sim.SchedulePeriodic(5, [&] {
    periodic_order.push_back(periodic_sim.Now() == 5 ? 0 : 3);
    if (periodic_sim.Now() == 5) {
      periodic_sim.ScheduleAt(10, [&] { periodic_order.push_back(2); });
    }
  });
  periodic_sim.ScheduleAt(5, [&] {
    periodic_sim.ScheduleAt(10, [&] { periodic_order.push_back(4); });
  });
  periodic_sim.RunUntil(10);
  periodic_sim.Cancel(chain);
  EXPECT_EQ(periodic_order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(50, [&] { fired_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(10, [&] { ++count; });
  sim.ScheduleAt(20, [&] { ++count; });
  sim.ScheduleAt(30, [&] { ++count; });
  sim.RunUntil(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), 20);
  sim.RunUntil(100);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.Now(), 100);  // advances even past the last event
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.ScheduleAt(10, [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(SimulatorTest, CancellingFiredOneShotsRecordsNothing) {
  Simulator sim;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.ScheduleAt(1 + i % 7, [&] { ++fired; }));
  }
  sim.Run();
  for (EventId id : ids) sim.Cancel(id);
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(sim.pending_cancellations(), 0u);
}

TEST(SimulatorTest, CancelAtTheFiringInstantOnlyRecordsQueuedEvents) {
  Simulator sim;
  std::vector<int> order;
  EventId first;
  EventId second;
  EventId late;
  // Same timestamp: the first event cancels itself (fired: nothing to
  // record) and the second (queued behind it: recorded, then dropped).
  first = sim.ScheduleAt(10, [&] {
    order.push_back(1);
    sim.Cancel(first);
    sim.Cancel(second);
    EXPECT_EQ(sim.pending_cancellations(), 1u);
  });
  second = sim.ScheduleAt(10, [&] { order.push_back(2); });
  late = sim.ScheduleAt(100, [&] { order.push_back(3); });
  // RunUntil moves the clock past nothing the queue popped: the event at
  // 100 is still queued and a cancel must stop it.
  sim.RunUntil(50);
  sim.Cancel(late);
  sim.Run();
  EXPECT_EQ(order, std::vector<int>{1});
  EXPECT_EQ(sim.pending_cancellations(), 0u);
}

TEST(SimulatorTest, CancelInvalidIdIsNoop) {
  Simulator sim;
  sim.Cancel(EventId{});
  bool fired = false;
  sim.ScheduleAt(1, [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, PeriodicFiresRepeatedly) {
  Simulator sim;
  int count = 0;
  sim.SchedulePeriodic(10, [&] { ++count; });
  sim.RunUntil(55);
  EXPECT_EQ(count, 5);  // t = 10, 20, 30, 40, 50
}

TEST(SimulatorTest, PeriodicCancelStopsChain) {
  // {cancel time, fires, executed events}. Cancelled before its first
  // occurrence the chain never runs or counts; cancelled later, its
  // already-pending occurrence still pops and counts as executed (it runs
  // nothing), next to the three firings and the cancelling event. Either
  // way no cancellation stays recorded, also after a repeated Cancel.
  struct Case {
    SimTime cancel_at;
    int fires;
    std::uint64_t executed;
  };
  for (const Case& c : {Case{5, 0, 1}, Case{35, 3, 5}}) {
    Simulator sim;
    int count = 0;
    EventId id = sim.SchedulePeriodic(10, [&] { ++count; });
    sim.ScheduleAt(c.cancel_at, [&, id] {
      sim.Cancel(id);
      sim.Cancel(id);
    });
    sim.RunUntil(200);
    EXPECT_EQ(count, c.fires) << c.cancel_at;
    EXPECT_EQ(sim.executed_events(), c.executed) << c.cancel_at;
    EXPECT_FALSE(sim.HasPending()) << c.cancel_at;
    EXPECT_EQ(sim.pending_cancellations(), 0u) << c.cancel_at;
    sim.Cancel(id);  // long after the chain stopped
    EXPECT_EQ(sim.pending_cancellations(), 0u) << c.cancel_at;
  }
}

TEST(SimulatorTest, PeriodicCanCancelItself) {
  // Cancelling from inside the callback stops the chain on the spot,
  // including on its very first occurrence; a second chain due at the
  // same instants keeps running.
  for (int stop_at : {1, 4}) {
    Simulator sim;
    int count = 0;
    int other = 0;
    EventId id;
    id = sim.SchedulePeriodic(10, [&] {
      if (++count == stop_at) sim.Cancel(id);
    });
    sim.SchedulePeriodic(10, [&] { ++other; });
    sim.RunUntil(1000);
    EXPECT_EQ(count, stop_at);
    EXPECT_EQ(other, 100);
    EXPECT_EQ(sim.executed_events(), static_cast<std::uint64_t>(stop_at + 100));
    EXPECT_EQ(sim.pending_cancellations(), 0u);
  }
}

TEST(SimulatorTest, EventsScheduledFromEventsRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.ScheduleAfter(1, recurse);
  };
  sim.ScheduleAt(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now(), 99);
}

TEST(SimulatorTest, HasPendingReflectsQueue) {
  Simulator sim;
  EXPECT_FALSE(sim.HasPending());
  sim.ScheduleAt(5, [] {});
  EXPECT_TRUE(sim.HasPending());
  sim.Run();
  EXPECT_FALSE(sim.HasPending());
}

TEST(TimeTest, Conversions) {
  EXPECT_EQ(FromSeconds(1.5), 1'500'000'000);
  EXPECT_EQ(FromMilliseconds(2.0), 2'000'000);
  EXPECT_EQ(FromMicroseconds(3.0), 3'000);
  EXPECT_DOUBLE_EQ(ToSeconds(2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(kSecond), 1000.0);
}

}  // namespace
}  // namespace cellfi
