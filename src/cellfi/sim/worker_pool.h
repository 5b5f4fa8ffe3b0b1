// Persistent worker pool (DESIGN.md §15): the library's one thread pool.
//
// It serves both levels of parallelism. SweepRunner (scenario/sweep) runs
// it ACROSS replications; LteNetwork runs it WITHIN one replication, for
// per-subframe shard work. It is deliberately tiny: a fixed set of threads
// spawned once, fed index ranges through RunIndexed, joined at
// destruction. Tasks must be pure with respect to each other (the caller
// guarantees disjoint write sets); the pool adds no ordering of its own,
// so any result that depends on task completion order is a caller bug.
//
// Nested-parallelism guard: when the replication runner's pool and shard
// pools are both active, the product of their thread counts must not
// silently oversubscribe the machine. SweepRunner registers its workers via
// AddActiveSweepThreads; ResolveShardThreads derives the default shard
// thread count as hardware_concurrency / active_sweep_threads. An EXPLICIT
// request (config value > 0 or the CELLFI_SHARD_THREADS env knob) is
// honored verbatim (clamped to the shard count) — explicit is not silent,
// and tests rely on it to exercise real concurrency on small machines.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cellfi {

/// max(1, std::thread::hardware_concurrency()).
int HardwareConcurrency();

/// Value of the integer environment variable `name` when it is set and
/// positive, else 0. Shared by the thread/replication-count knobs.
int EnvInt(const char* name);

/// Registration of replication-runner worker threads (SweepRunner
/// construction adds, destruction subtracts). Used by ResolveShardThreads
/// to derive a non-oversubscribing default.
void AddActiveSweepThreads(int delta);
int ActiveSweepThreads();

/// Effective shard worker count for a network configured with `shards`
/// partitions. Precedence: `requested` (config) > CELLFI_SHARD_THREADS env
/// > hardware_concurrency / active_sweep_threads. The result is always in
/// [1, shards]; only the derived default is capped by the nested-
/// parallelism guard.
int ResolveShardThreads(int requested, int shards);

/// Fixed-size persistent thread pool. One batch at a time; not thread-safe
/// across concurrent RunIndexed calls.
class WorkerPool {
 public:
  /// Spawns `threads` workers (minimum 1).
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()); }

  /// Run task(i) for every i in [0, count); blocks until all complete.
  /// Exceptions are captured per task and the first (by task index, for
  /// determinism) is rethrown after the batch drains.
  void RunIndexed(std::size_t count, const std::function<void(std::size_t)>& task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t count_ = 0;
  std::size_t next_ = 0;
  std::size_t completed_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace cellfi
