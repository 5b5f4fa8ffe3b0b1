#include "cellfi/sim/event_queue.h"

#include <cassert>

namespace cellfi {

EventId Simulator::ScheduleAt(SimTime when, Callback cb) {
  assert(when >= now_);
  const std::uint64_t seq = next_seq_++;
  queue_.push(Event{when, seq, 0, 0, std::move(cb)});
  return EventId(seq, when);
}

EventId Simulator::SchedulePeriodic(SimTime period, Callback cb) {
  assert(period > 0);
  const std::uint64_t seq = next_seq_++;
  const std::size_t chain = chain_alive_.size();
  chain_alive_.push_back(1);
  chain_of_first_.emplace(seq, chain);
  queue_.push(Event{now_ + period, seq, period, chain, std::move(cb)});
  return EventId(seq, now_ + period);
}

void Simulator::Cancel(EventId id) {
  if (!id.valid()) return;
  auto it = chain_of_first_.find(id.seq_);
  if (it != chain_of_first_.end()) chain_alive_[it->second] = 0;
  // A fired one-shot needs nothing, and past its first occurrence the dead
  // flag alone stops a chain; only a queued occurrence is recorded.
  if (!Popped(id)) cancelled_.insert(id.seq_);
}

bool Simulator::HasPending() const { return !queue_.empty(); }

void Simulator::ExecuteNext() {
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.when;
  last_when_ = ev.when;
  last_seq_ = ev.seq;
  auto it = cancelled_.find(ev.seq);
  if (it != cancelled_.end()) {
    cancelled_.erase(it);
    return;
  }
  // A cancelled chain's pending later occurrence still pops and counts as
  // executed; it just runs nothing.
  ++executed_;
  if (ev.period > 0 && chain_alive_[ev.chain] == 0) return;
  ev.cb();
  if (ev.period > 0 && chain_alive_[ev.chain] != 0) {
    queue_.push(Event{now_ + ev.period, next_seq_++, ev.period, ev.chain, std::move(ev.cb)});
  }
}

void Simulator::RunUntil(SimTime until) {
  while (!queue_.empty() && queue_.top().when <= until) ExecuteNext();
  now_ = std::max(now_, until);
}

void Simulator::Run() {
  while (!queue_.empty()) ExecuteNext();
}

}  // namespace cellfi
