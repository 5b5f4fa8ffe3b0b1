// Parallel replication runner for simulation sweeps.
//
// The Fig. 9 / Table 1 / ablation benches are Monte-Carlo sweeps over
// (point, replication) grids where every replication is an independent
// simulation: it builds its own Simulator, Rng and RadioEnvironment from a
// ScenarioConfig whose seed is a pure function of (point, rep). That makes
// the sweep embarrassingly parallel, and this subsystem runs it on the
// library's one worker pool (sim::WorkerPool, DESIGN.md §15).
//
// Determinism contract: a replication's outcome depends only on its
// ScenarioConfig (and optional pre-built Topology), never on the thread
// that ran it, the number of workers, or completion order. Outcomes are
// collected into the input order, so per-point aggregation (whose
// floating-point results depend on summation order) is also independent of
// the thread count: results are bit-identical between threads=1 and
// threads=N.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cellfi/common/json.h"
#include "cellfi/common/stats.h"
#include "cellfi/scenario/harness.h"
#include "cellfi/sim/worker_pool.h"

namespace cellfi::scenario {

/// Seed for replication `rep` of sweep point `point`, derived from a
/// bench-level base seed with a pure integer hash (SplitMix64 chain):
/// identical on every platform and independent of execution order.
std::uint64_t SweepSeed(std::uint64_t base, std::uint64_t point, std::uint64_t rep);

/// Effective worker count: `requested` if > 0, else CELLFI_BENCH_THREADS,
/// else std::thread::hardware_concurrency() (min 1).
int ResolveThreads(int requested = 0);

/// Effective replication count: CELLFI_BENCH_REPS overrides `default_reps`
/// (quick runs, smoke tests).
int ResolveReps(int default_reps);

struct SweepOptions {
  /// Worker threads; <= 0 resolves via ResolveThreads.
  int threads = 0;
  /// Print one line per completed replication to stderr.
  bool progress = false;
};

/// One independent replication: a scenario plus its aggregation key.
struct Replication {
  ScenarioConfig config;
  /// Pre-built placement shared across technologies at the same
  /// (point, rep); when null the topology is generated from config.seed
  /// exactly as RunScenario does.
  std::shared_ptr<const Topology> topology;
  int point = 0;  ///< sweep-point index (aggregation key)
  int rep = 0;    ///< replication index within the point
  /// Human-readable scenario label (the bench point's name). Carried into
  /// failure records so a failing replication identifies its scenario, not
  /// just its seed.
  std::string label;
};

struct ReplicationOutcome {
  ScenarioResult result;     ///< valid only when error == nullptr
  std::exception_ptr error;  ///< exception thrown by the replication, if any
  /// what() of the thrown exception ("unknown exception" for non-standard
  /// throws); recorded in the bench artifact so a failing replication is
  /// never silently dropped.
  std::string error_text;
  double wall_seconds = 0.0;
  double sim_seconds = 0.0;  ///< simulated time covered by the run
  int point = 0;
  int rep = 0;
  /// Seed the replication ran with (for reproducing failures).
  std::uint64_t seed = 0;
  /// Scenario label copied from the Replication (failure forensics).
  std::string label;
  /// Attempts the supervisor spent on this replication (0 = plain runner).
  int attempts = 0;
  /// Failed every supervised attempt; recorded and excluded from stats.
  bool quarantined = false;
  /// Outcome restored from a sweep checkpoint instead of re-running.
  bool restored = false;
  /// Obs snapshot carried through the checkpoint (restored outcomes have
  /// no live ScenarioResult to snapshot from).
  json::Value restored_obs;
};

/// Body executed for one replication; the default runs the standard
/// topology-generation + RunScenarioOn path. Injectable for tests
/// (exception isolation) and non-standard per-replication work.
using ReplicationBody = std::function<ScenarioResult(const Replication&)>;

/// Run one replication: fills the outcome header, times the run on the
/// wall clock and captures any exception into the outcome. An empty `body`
/// runs the standard path (topology generation + RunScenarioOn). The one
/// replication executor: SweepRunner::Run and SweepSupervisor::Run both
/// call it, and it doubles as the sequential fallback and test hook.
ReplicationOutcome RunOneReplication(const Replication& job,
                                     const ReplicationBody& body = nullptr);

/// Executes independent replications on a fixed-size WorkerPool. Workers
/// are spawned once at construction and joined at destruction; batches are
/// handed to the pool via Run()/RunTasks(). One batch at a time: the
/// runner itself is not thread-safe. While alive, the runner's workers are
/// registered with the nested-parallelism guard (AddActiveSweepThreads).
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  int threads() const { return pool_.threads(); }

  /// Run every replication on the pool; blocks until all complete and
  /// returns outcomes in input order regardless of completion order. An
  /// exception inside one replication is captured in its outcome and does
  /// not disturb the others (see ThrowIfFailed).
  std::vector<ReplicationOutcome> Run(const std::vector<Replication>& jobs,
                                      const ReplicationBody& body = nullptr);

  /// Generic escape hatch for benches whose unit of work is not a
  /// ScenarioConfig (e.g. the hopping-game convergence sweeps): run
  /// `count` independent tasks, task(i) for i in [0, count). Tasks must
  /// not depend on execution order. The first exception (by task index) is
  /// rethrown after the whole batch has drained.
  void RunTasks(std::size_t count, const std::function<void(std::size_t)>& task) {
    pool_.RunIndexed(count, task);
  }

 private:
  bool progress_ = false;
  WorkerPool pool_;
};

/// Rethrow the first captured replication error, if any.
void ThrowIfFailed(const std::vector<ReplicationOutcome>& outcomes);

/// Mean/stddev/min/max of a per-replication scalar over the successful
/// replications of `point`, accumulated in replication order (bit-stable
/// across thread counts).
Summary PointSummary(const std::vector<ReplicationOutcome>& outcomes, int point,
                     const std::function<double(const ScenarioResult&)>& metric);

/// Percentile-capable sample collection over the successful replications
/// of `point`; `add` appends whatever per-client samples it wants.
Distribution PointDistribution(
    const std::vector<ReplicationOutcome>& outcomes, int point,
    const std::function<void(const ScenarioResult&, Distribution&)>& add);

/// Machine-readable bench artifact: accumulates per-point wall-clock and
/// simulated-time totals and writes BENCH_<name>.json so the performance
/// trajectory of every sweep bench is tracked across PRs.
class BenchReport {
 public:
  /// `threads` / `reps` are recorded verbatim in the artifact.
  BenchReport(std::string name, int threads, int reps);

  /// Record one sweep point from the outcomes whose point index matches.
  /// Replications run with observability enabled additionally embed their
  /// metrics snapshot (ObsSnapshotToJson) into the artifact point.
  void AddPoint(const std::string& label,
                const std::vector<ReplicationOutcome>& outcomes, int point);

  /// Record a manually timed point (benches not built on ScenarioConfig).
  void AddPoint(const std::string& label, int reps, double wall_seconds,
                double sim_seconds);

  /// Write BENCH_<name>.json into $CELLFI_BENCH_OUT (default: the current
  /// directory). Returns the path written.
  std::string Write() const;

 private:
  struct Point {
    std::string label;
    int reps = 0;
    double wall_seconds = 0.0;
    double sim_seconds = 0.0;
    /// Per-replication obs snapshots ({"rep": i, "obs": ...}); empty
    /// unless the replications ran with observability enabled.
    json::Array obs;
    /// Structured records of failed replications ({"rep", "seed",
    /// "error", ...}); a failure is part of the artifact, not a hole.
    json::Array failures;
  };
  std::string name_;
  int threads_;
  int reps_;
  std::chrono::steady_clock::time_point start_;
  std::vector<Point> points_;
};

}  // namespace cellfi::scenario
