// Discrete-event simulation engine.
//
// A `Simulator` owns a priority queue of (time, sequence, callback) events.
// Events scheduled for the same timestamp execute in scheduling order, which
// makes runs deterministic for a fixed seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cellfi/common/time.h"

namespace cellfi {

/// Handle used to cancel a scheduled event.
class EventId {
 public:
  EventId() = default;
  bool valid() const { return seq_ != 0; }

 private:
  friend class Simulator;
  EventId(std::uint64_t seq, SimTime when) : seq_(seq), when_(when) {}
  std::uint64_t seq_ = 0;
  SimTime when_ = 0;  // the (first) occurrence's time: (when_, seq_) is its queue key
};

/// Single-threaded discrete-event simulator.
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Current simulation time.
  SimTime Now() const { return now_; }

  /// Schedule `cb` to run at absolute time `when` (>= Now()).
  EventId ScheduleAt(SimTime when, Callback cb);

  /// Schedule `cb` to run `delay` after Now().
  EventId ScheduleAfter(SimTime delay, Callback cb) {
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  /// Schedule `cb` every `period`, starting at Now() + `period`.
  /// Returns the id of the *first* occurrence; cancelling it stops the chain
  /// (also from inside `cb`). Each later occurrence takes its sequence
  /// number after the previous one's callback returns, and is re-armed by
  /// moving the callback back into the queue, so a running chain never
  /// allocates.
  EventId SchedulePeriodic(SimTime period, Callback cb);

  /// Cancel a pending event. Safe to call for already-fired events (no-op:
  /// nothing is recorded for a fired id). Cancelling a periodic chain whose
  /// first occurrence has already fired only stops the chain.
  void Cancel(EventId id);

  /// Run until the event queue drains or `until` is reached (whichever is
  /// first). Events at exactly `until` do run.
  void RunUntil(SimTime until);

  /// Run until the queue is empty.
  void Run();

  /// Number of events executed so far (for tests / diagnostics).
  std::uint64_t executed_events() const { return executed_; }

  /// True if any event is pending.
  bool HasPending() const;

  /// Ids Cancel has recorded and the queue has not popped yet (for tests /
  /// diagnostics).
  std::size_t pending_cancellations() const { return cancelled_.size(); }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    SimTime period;     // re-arm interval; 0 = one-shot
    std::size_t chain;  // periodic only: index into chains_
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  void ExecuteNext();
  /// True once `id`'s (first) occurrence has left the queue. Popped keys
  /// strictly increase and every newly queued key exceeds the last popped
  /// one, so an event has popped iff its key is <= the last popped key.
  bool Popped(EventId id) const {
    return id.when_ != last_when_ ? id.when_ < last_when_ : id.seq_ <= last_seq_;
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  /// Key of the last popped event (seq 0: none yet).
  SimTime last_when_ = 0;
  std::uint64_t last_seq_ = 0;
  std::unordered_set<std::uint64_t> cancelled_;
  /// Periodic chains: the first occurrence's seq (the id Cancel receives)
  /// -> the chain's index in chain_alive_, kept for the simulator's life
  /// so a repeated Cancel still finds the chain. Cancel clears the flag.
  std::unordered_map<std::uint64_t, std::size_t> chain_of_first_;
  std::vector<std::uint8_t> chain_alive_;
};

}  // namespace cellfi
