#include "cellfi/sim/worker_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>

namespace cellfi {

namespace {

std::atomic<int> g_active_sweep_threads{0};

}  // namespace

int HardwareConcurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int EnvInt(const char* name) {
  if (const char* env = std::getenv(name)) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 0;
}

void AddActiveSweepThreads(int delta) {
  g_active_sweep_threads.fetch_add(delta, std::memory_order_relaxed);
}

int ActiveSweepThreads() {
  const int n = g_active_sweep_threads.load(std::memory_order_relaxed);
  return n > 0 ? n : 0;
}

int ResolveShardThreads(int requested, int shards) {
  if (shards < 1) shards = 1;
  int threads = requested;
  if (threads <= 0) threads = EnvInt("CELLFI_SHARD_THREADS");
  if (threads <= 0) {
    // Derived default: never let sweep_threads x shard_threads exceed the
    // machine. With 8 sweep workers on an 8-core box this resolves to 1 —
    // replication-level parallelism already owns the cores.
    const int sweep = ActiveSweepThreads();
    threads = HardwareConcurrency() / (sweep > 0 ? sweep : 1);
  }
  if (threads < 1) threads = 1;
  if (threads > shards) threads = shards;
  return threads;
}

WorkerPool::WorkerPool(int threads) {
  if (threads < 1) threads = 1;
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void WorkerPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || next_ < count_; });
    if (stop_) return;
    const std::size_t index = next_++;
    lock.unlock();
    (*task_)(index);
    lock.lock();
    if (++completed_ == count_) done_cv_.notify_all();
  }
}

void WorkerPool::RunIndexed(std::size_t count,
                            const std::function<void(std::size_t)>& task) {
  if (count == 0) return;

  // Exceptions never unwind through the pool. Capture the first by task
  // index (deterministic regardless of thread timing) and rethrow once the
  // batch has drained.
  std::mutex error_mu;
  std::size_t error_index = count;
  std::exception_ptr error;
  const std::function<void(std::size_t)> guarded = [&](std::size_t i) {
    try {
      task(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (i < error_index) {
        error_index = i;
        error = std::current_exception();
      }
    }
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = &guarded;
    count_ = count;
    next_ = 0;
    completed_ = 0;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return completed_ == count_; });
    task_ = nullptr;
    count_ = 0;
    next_ = 0;
    completed_ = 0;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace cellfi
