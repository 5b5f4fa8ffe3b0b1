// Tests for the deterministic chaos engine (DESIGN.md §14): fault-plan
// JSON round-trips, the fault scheduler's dispatch/counters, the runtime
// invariant checker (including a PLANTED vacate-deadline violation the
// checker must catch), bit-reproducibility of full chaos campaigns across
// runs and thread counts, vacate-deadline compliance of thundering-herd
// reboot storms verified from the emitted trace by tools/trace_check.py,
// the harness-level CELLFI_CHAOS_PLAN knob, and the self-healing sweep
// supervisor (retry, quarantine, watchdog, checkpoint/resume).
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cellfi/chaos/fault_plan.h"
#include "cellfi/chaos/fault_scheduler.h"
#include "cellfi/chaos/invariants.h"
#include "cellfi/obs/metrics.h"
#include "cellfi/obs/trace.h"
#include "cellfi/scenario/chaos_campaign.h"
#include "cellfi/scenario/report.h"
#include "cellfi/scenario/supervisor.h"
#include "cellfi/scenario/sweep.h"
#include "cellfi/sim/event_queue.h"

namespace cellfi {
namespace {

using chaos::FaultEvent;
using chaos::FaultKind;
using chaos::FaultPlan;
using chaos::InvariantChecker;
using chaos::InvariantCheckerConfig;
using chaos::InvariantKind;

// Temp files live in a per-process directory: ctest runs the discovered
// per-test entries and the whole-binary chaos_test_chaos_suite at the same
// time, so fixed names under TempDir() would collide between the two
// processes. The directory is removed when the test binary finishes.
const std::string& ProcessTempDir() {
  static const std::string dir = [] {
    std::string d = testing::TempDir() + "chaos_test_" + std::to_string(getpid());
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

std::string TempPath(const std::string& name) { return ProcessTempDir() + "/" + name; }

class RemoveProcessTempDir : public testing::Environment {
 public:
  void TearDown() override { std::filesystem::remove_all(ProcessTempDir()); }
};
[[maybe_unused]] testing::Environment* const kRemoveProcessTempDir =
    testing::AddGlobalTestEnvironment(new RemoveProcessTempDir);

// --- Fault plans -----------------------------------------------------------

FaultPlan AllKindsPlan() {
  FaultPlan plan;
  plan.name = "all-kinds";
  plan.seed = 0xABCDEF0123ull;
  plan.link.latency_base = 20 * kMillisecond;
  plan.link.latency_jitter = 5 * kMillisecond;
  plan.link.drop_probability = 0.05;
  plan.link.corrupt_probability = 0.01;
  plan.link.error_probability = 0.02;
  plan.link.wrong_id_probability = 0.005;
  plan.events.push_back({.kind = FaultKind::kApCrash, .time = 10 * kSecond,
                         .duration = 5 * kSecond, .target = 2});
  plan.events.push_back({.kind = FaultKind::kDbOutage, .time = 20 * kSecond,
                         .duration = 30 * kSecond});
  plan.events.push_back({.kind = FaultKind::kDbBrownout, .time = 60 * kSecond,
                         .duration = 10 * kSecond, .magnitude = 0.3,
                         .latency = 2 * kSecond});
  plan.events.push_back({.kind = FaultKind::kIncumbentArrive,
                         .time = 90 * kSecond, .duration = 40 * kSecond,
                         .channel = 21});
  plan.events.push_back({.kind = FaultKind::kIncumbentDepart,
                         .time = 200 * kSecond, .channel = 22});
  plan.events.push_back({.kind = FaultKind::kLoadShock, .time = 150 * kSecond,
                         .duration = 20 * kSecond, .target = 1,
                         .magnitude = 4.0});
  return plan;
}

TEST(FaultPlanTest, JsonRoundTripPreservesEveryKind) {
  const FaultPlan plan = AllKindsPlan().Normalized();
  const std::string text = plan.ToJsonText();
  const auto parsed = FaultPlan::FromJsonText(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, plan.name);
  EXPECT_EQ(parsed->seed, plan.seed);
  EXPECT_EQ(parsed->link.latency_base, plan.link.latency_base);
  EXPECT_EQ(parsed->link.drop_probability, plan.link.drop_probability);
  EXPECT_EQ(parsed->link.wrong_id_probability, plan.link.wrong_id_probability);
  ASSERT_EQ(parsed->events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(parsed->events[i], plan.events[i]) << "event " << i;
  }
  // Serialization is canonical: a second round trip is byte-identical.
  EXPECT_EQ(parsed->ToJsonText(), text);
}

TEST(FaultPlanTest, RejectsMalformedPlans) {
  EXPECT_FALSE(FaultPlan::FromJsonText("not json").has_value());
  EXPECT_FALSE(FaultPlan::FromJsonText("[1,2,3]").has_value());
  EXPECT_FALSE(FaultPlan::FromJsonText(
                   R"({"events":[{"kind":"warp_core_breach","t_us":1}]})")
                   .has_value());
  EXPECT_FALSE(FaultPlan::FromJsonText(
                   R"({"events":[{"kind":"ap_crash","t_us":-5}]})")
                   .has_value());
  EXPECT_FALSE(FaultPlan::FromJsonText(
                   R"({"link":{"drop_probability":1.5},"events":[]})")
                   .has_value());
}

TEST(FaultPlanTest, TransportSeedsAreStableAndDistinct) {
  const FaultPlan plan = AllKindsPlan();
  EXPECT_EQ(chaos::TransportSeed(plan, 0), chaos::TransportSeed(plan, 0));
  EXPECT_NE(chaos::TransportSeed(plan, 0), chaos::TransportSeed(plan, 1));
  const tvws::FaultProfile p0 = chaos::LinkProfileFor(plan, 0);
  EXPECT_EQ(p0.seed, chaos::TransportSeed(plan, 0));
  EXPECT_EQ(p0.drop_probability, plan.link.drop_probability);
}

// --- Fault scheduler -------------------------------------------------------

TEST(FaultSchedulerTest, DispatchesCountsAndAutoDeparture) {
  Simulator sim;
  FaultPlan plan;
  plan.events.push_back({.kind = FaultKind::kApCrash, .time = 1 * kSecond});
  plan.events.push_back({.kind = FaultKind::kIncumbentArrive,
                         .time = 2 * kSecond, .duration = 3 * kSecond,
                         .channel = 30});
  plan.events.push_back({.kind = FaultKind::kLoadShock, .time = 4 * kSecond,
                         .duration = 2 * kSecond, .target = 0,
                         .magnitude = 2.0});

  std::vector<int> crashed;
  int arrivals = 0, departures = 0, shocks_on = 0, shocks_off = 0;
  chaos::FaultHooks hooks;
  hooks.crash_ap = [&](int ap, const FaultEvent&) { crashed.push_back(ap); };
  hooks.incumbent_arrive = [&](const FaultEvent& e) {
    EXPECT_EQ(e.channel, 30);
    ++arrivals;
  };
  hooks.incumbent_depart = [&](const FaultEvent& e) {
    EXPECT_EQ(e.channel, 30);
    EXPECT_EQ(sim.Now(), 5 * kSecond);  // arrive + dwell
    ++departures;
  };
  hooks.load_shock_begin = [&](const FaultEvent&) { ++shocks_on; };
  hooks.load_shock_end = [&](const FaultEvent& e) {
    EXPECT_EQ(e.target, 0);
    ++shocks_off;
  };

  // target == -1 crash expands over the fleet.
  chaos::FaultScheduler scheduler(sim, plan, std::move(hooks), 3);
  scheduler.Arm();
  sim.RunUntil(10 * kSecond);

  EXPECT_EQ(crashed, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(arrivals, 1);
  EXPECT_EQ(departures, 1);
  EXPECT_EQ(shocks_on, 1);
  EXPECT_EQ(shocks_off, 1);
  EXPECT_EQ(scheduler.counters().ap_crashes, 3u);
  EXPECT_EQ(scheduler.counters().incumbent_arrivals, 1u);
  EXPECT_EQ(scheduler.counters().incumbent_departures, 1u);
  EXPECT_EQ(scheduler.counters().load_shocks, 1u);
  EXPECT_EQ(scheduler.counters().skipped, 0u);
  EXPECT_EQ(scheduler.injected(), 6u);
}

TEST(FaultSchedulerTest, UnboundHooksCountAsSkipped) {
  Simulator sim;
  FaultPlan plan;
  plan.events.push_back({.kind = FaultKind::kDbOutage, .time = 1 * kSecond,
                         .duration = 1 * kSecond});
  plan.events.push_back({.kind = FaultKind::kApCrash, .time = 2 * kSecond,
                         .target = 0});
  chaos::FaultScheduler scheduler(sim, plan, chaos::FaultHooks{}, 1);
  scheduler.Arm();
  sim.RunUntil(5 * kSecond);
  EXPECT_EQ(scheduler.injected(), 0u);
  EXPECT_EQ(scheduler.counters().skipped, 2u);
}

// --- Invariant checker -----------------------------------------------------

TEST(InvariantCheckerTest, VacateDeadlineArmsAndReportsOnce) {
  InvariantChecker checker;
  checker.OnApOnAir(0, 21, 0);
  checker.OnIncumbentArrival(21, 10 * kSecond);
  checker.AtBarrier(69 * kSecond);  // within the 60 s budget
  EXPECT_TRUE(checker.violations().empty());
  checker.AtBarrier(71 * kSecond);  // past 10 s + 60 s
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].kind, InvariantKind::kVacateDeadline);
  EXPECT_EQ(checker.violations()[0].instance, 0);
  // Report-once: the expired deadline does not re-fire every barrier.
  checker.AtBarrier(80 * kSecond);
  EXPECT_EQ(checker.violations().size(), 1u);
}

TEST(InvariantCheckerTest, VacatingInTimeIsClean) {
  InvariantChecker checker;
  checker.OnApOnAir(0, 21, 0);
  checker.OnIncumbentArrival(21, 10 * kSecond);
  checker.OnApOffAir(0, 30 * kSecond);  // vacated well inside the budget
  checker.AtBarrier(200 * kSecond);
  EXPECT_TRUE(checker.violations().empty());
  // An arrival on a channel nobody transmits on arms nothing.
  checker.OnIncumbentArrival(45, 10 * kSecond);
  checker.AtBarrier(400 * kSecond);
  EXPECT_TRUE(checker.violations().empty());
}

TEST(InvariantCheckerTest, DirectChecksFlagViolations) {
  InvariantChecker checker;
  checker.CheckLeasedTransmit(3, true, 1 * kSecond);
  checker.CheckShareSum(0, 2, 1.0, 1 * kSecond);  // exactly 1.0 is legal
  checker.CheckPrbGrant(0, 25, 25, 1 * kSecond);
  EXPECT_TRUE(checker.violations().empty());
  EXPECT_EQ(checker.checks_run(), 3u);

  checker.CheckLeasedTransmit(3, false, 2 * kSecond);
  checker.CheckShareSum(0, 2, 1.5, 2 * kSecond);
  checker.CheckPrbGrant(0, 26, 25, 2 * kSecond);
  ASSERT_EQ(checker.violations().size(), 3u);
  EXPECT_EQ(checker.violations()[0].kind, InvariantKind::kLeasedTransmit);
  EXPECT_EQ(checker.violations()[1].kind, InvariantKind::kShareSum);
  EXPECT_EQ(checker.violations()[2].kind, InvariantKind::kPrbCapacity);
}

TEST(InvariantCheckerTest, AbortOnViolationThrows) {
  InvariantCheckerConfig cfg;
  cfg.abort_on_violation = true;
  InvariantChecker checker(cfg);
  EXPECT_THROW(checker.CheckPrbGrant(0, 30, 25, 0), std::runtime_error);
}

// --- Chaos campaigns -------------------------------------------------------

scenario::ChaosCampaignConfig HerdChurnCampaign() {
  scenario::ChaosCampaignConfig cfg;
  cfg.num_aps = 4;
  cfg.plan.name = "herd+churn";
  cfg.plan.events.push_back(
      {.kind = FaultKind::kApCrash, .time = 300 * kSecond});
  cfg.plan.events.push_back({.kind = FaultKind::kIncumbentArrive,
                             .time = 500 * kSecond,
                             .duration = 120 * kSecond, .channel = 14});
  cfg.run_until = 700 * kSecond;
  return cfg;
}

TEST(ChaosCampaignTest, FixedSeedCampaignIsBitIdentical) {
  const scenario::ChaosCampaignConfig cfg = HerdChurnCampaign();
  const auto a = scenario::RunChaosCampaign(cfg);
  const auto b = scenario::RunChaosCampaign(cfg);

  // The herd crash hit every AP; churn arrived and departed.
  EXPECT_EQ(a.faults.ap_crashes, 4u);
  EXPECT_EQ(a.faults.incumbent_arrivals, 1u);
  EXPECT_EQ(a.faults.incumbent_departures, 1u);
  EXPECT_EQ(a.faults_injected, 6u);
  ASSERT_EQ(a.aps.size(), 4u);
  for (const auto& ap : a.aps) {
    EXPECT_EQ(ap.crashes, 1u);
    EXPECT_FALSE(ap.lease_confirms.empty());
  }
  EXPECT_TRUE(a.violations.empty());
  EXPECT_GT(a.invariant_checks, 0u);
  EXPECT_EQ(a.Digest(), b.Digest());
}

TEST(ChaosCampaignTest, DigestIndependentOfThreadCount) {
  // Three campaigns with different plan flavors, run on a 1-thread pool
  // and a 4-thread pool: the digests must match element-wise.
  std::vector<scenario::ChaosCampaignConfig> cfgs;
  cfgs.push_back(HerdChurnCampaign());
  cfgs.push_back(HerdChurnCampaign());
  cfgs[1].plan.link.drop_probability = 0.1;
  cfgs[1].plan.link.latency_jitter = 50 * kMillisecond;
  cfgs.push_back(HerdChurnCampaign());
  cfgs[2].plan.events.push_back({.kind = FaultKind::kDbOutage,
                                 .time = 100 * kSecond,
                                 .duration = 80 * kSecond});

  auto run_all = [&cfgs](int threads) {
    std::vector<std::uint64_t> digests(cfgs.size(), 0);
    scenario::SweepRunner runner(scenario::SweepOptions{.threads = threads});
    runner.RunTasks(cfgs.size(), [&](std::size_t i) {
      digests[i] = scenario::RunChaosCampaign(cfgs[i]).Digest();
    });
    return digests;
  };
  EXPECT_EQ(run_all(1), run_all(4));
}

TEST(ChaosCampaignTest, PlantedVacateDeadlineViolationIsCaught) {
  // Negative test: an AP polling every 120 s with a (deliberately lax)
  // 300 s internal budget cannot notice an incumbent for up to 120 s.
  // Against the real ETSI 60 s budget in the checker that is a violation,
  // and the checker must catch it.
  scenario::ChaosCampaignConfig cfg;
  cfg.num_aps = 2;
  cfg.selector.db_poll_interval = 120 * kSecond;
  cfg.selector.etsi_vacate_budget = 300 * kSecond;
  cfg.plan.name = "planted-violation";
  cfg.plan.events.push_back({.kind = FaultKind::kIncumbentArrive,
                             .time = 150 * kSecond, .channel = 14});
  cfg.run_until = 400 * kSecond;

  const auto bad = scenario::RunChaosCampaign(cfg);
  ASSERT_FALSE(bad.violations.empty());
  for (const auto& v : bad.violations) {
    EXPECT_EQ(v.kind, InvariantKind::kVacateDeadline);
    EXPECT_GE(v.time, 210 * kSecond);  // arrival + 60 s
  }

  // Control: judged against the same 300 s budget the selector honors,
  // the identical campaign is clean.
  cfg.invariants.vacate_budget = 300 * kSecond;
  const auto ok = scenario::RunChaosCampaign(cfg);
  EXPECT_TRUE(ok.violations.empty());
}

// Run `python3 tools/trace_check.py <args>` against the source tree.
int RunTraceCheck(const std::string& args) {
  const std::string cmd =
      "python3 " CELLFI_SOURCE_DIR "/tools/trace_check.py " + args;
  return std::system(cmd.c_str());
}

TEST(ChaosCampaignTest, ThunderingHerdMeetsVacateDeadlines) {
  // Three reboot-storm fault plans; for each, every vacate_fired in the
  // emitted trace must sit within the ETSI 60 s budget of the latest
  // lease confirmation (vacate_armed), verified by trace_check.py.
  std::vector<scenario::ChaosCampaignConfig> cfgs(3);
  cfgs[0] = HerdChurnCampaign();  // herd crash, then incumbent churn
  // Herd crash, then a database outage long enough to expire leases: the
  // hard deadline path must fire at exactly last-confirm + budget.
  cfgs[1].num_aps = 4;
  cfgs[1].plan.name = "herd+outage";
  cfgs[1].plan.events.push_back(
      {.kind = FaultKind::kApCrash, .time = 200 * kSecond});
  cfgs[1].plan.events.push_back({.kind = FaultKind::kDbOutage,
                                 .time = 400 * kSecond,
                                 .duration = 120 * kSecond});
  cfgs[1].run_until = 700 * kSecond;
  // Staggered crashes with a brownout and churn.
  cfgs[2].num_aps = 3;
  cfgs[2].plan.name = "stagger+brownout+churn";
  for (int ap = 0; ap < 3; ++ap) {
    cfgs[2].plan.events.push_back({.kind = FaultKind::kApCrash,
                                   .time = (250 + 50 * ap) * kSecond,
                                   .target = ap});
  }
  cfgs[2].plan.events.push_back({.kind = FaultKind::kDbBrownout,
                                 .time = 420 * kSecond,
                                 .duration = 60 * kSecond, .magnitude = 0.4,
                                 .latency = 1 * kSecond});
  cfgs[2].plan.events.push_back({.kind = FaultKind::kIncumbentArrive,
                                 .time = 520 * kSecond,
                                 .duration = 90 * kSecond, .channel = 14});
  cfgs[2].run_until = 700 * kSecond;

  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const std::string path = TempPath("chaos_herd_trace_" +
                                      std::to_string(i) + ".jsonl");
    std::remove(path.c_str());
    {
      obs::TraceSinkConfig sink_cfg;
      sink_cfg.jsonl_path = path;
      obs::TraceSink sink(sink_cfg);
      obs::MetricsRegistry metrics;
      obs::ObsScope scope(&sink, &metrics);
      const auto result = scenario::RunChaosCampaign(cfgs[i]);
      EXPECT_TRUE(result.violations.empty()) << cfgs[i].plan.name;
      sink.Flush();
    }
    EXPECT_EQ(RunTraceCheck("deadline " + path +
                            " --first channel_selector:vacate_armed"
                            " --second channel_selector:vacate_fired"
                            " --max-us 60000000 --require 1"
                            " >/dev/null"),
              0)
        << cfgs[i].plan.name;
  }
}

// --- Harness integration ---------------------------------------------------

scenario::ScenarioConfig SmallLteConfig(std::uint64_t seed) {
  scenario::ScenarioConfig cfg;
  cfg.tech = scenario::Technology::kCellFi;
  cfg.workload = scenario::WorkloadKind::kBacklogged;
  cfg.topology.area_m = 800.0;
  cfg.topology.num_aps = 2;
  cfg.topology.clients_per_ap = 2;
  cfg.warmup = 100 * kMillisecond;
  cfg.duration = 1 * kSecond;
  cfg.seed = seed;
  return cfg;
}

TEST(HarnessChaosTest, CrashAndLoadShockInjectDeterministically) {
  scenario::ScenarioConfig cfg = SmallLteConfig(42);
  FaultPlan plan;
  plan.name = "harness-smoke";
  plan.events.push_back({.kind = FaultKind::kApCrash, .time = 300 * kMillisecond,
                         .duration = 200 * kMillisecond, .target = 0});
  plan.events.push_back({.kind = FaultKind::kLoadShock, .time = 500 * kMillisecond,
                         .duration = 300 * kMillisecond, .magnitude = 2.0});
  cfg.chaos_plan = plan;

  const auto a = scenario::RunScenario(cfg);
  const auto b = scenario::RunScenario(cfg);
  EXPECT_EQ(a.chaos_faults_injected, 2u);
  EXPECT_EQ(b.chaos_faults_injected, 2u);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t c = 0; c < a.clients.size(); ++c) {
    EXPECT_EQ(a.clients[c].throughput_bps, b.clients[c].throughput_bps);
  }
  EXPECT_EQ(a.total_throughput_bps, b.total_throughput_bps);

  // Without a plan the run injects nothing.
  cfg.chaos_plan.reset();
  EXPECT_EQ(scenario::RunScenario(cfg).chaos_faults_injected, 0u);
}

TEST(HarnessChaosTest, EnvKnobLoadsPlanFromFile) {
  FaultPlan plan;
  plan.name = "env-knob";
  plan.events.push_back(
      {.kind = FaultKind::kApCrash, .time = 300 * kMillisecond, .target = 0});
  const std::string path = TempPath("chaos_env_plan.json");
  {
    std::ofstream file(path);
    file << plan.ToJsonText() << "\n";
  }
  ASSERT_EQ(setenv("CELLFI_CHAOS_PLAN", path.c_str(), 1), 0);
  const auto result = scenario::RunScenario(SmallLteConfig(7));
  unsetenv("CELLFI_CHAOS_PLAN");
  EXPECT_EQ(result.chaos_faults_injected, 1u);
}

// --- Sweep supervisor ------------------------------------------------------

scenario::SupervisorOptions Opts(int threads, int max_attempts,
                                 double watchdog_seconds = 0.0,
                                 std::string resume_path = "") {
  scenario::SupervisorOptions o;
  o.threads = threads;
  o.max_attempts = max_attempts;
  o.watchdog_seconds = watchdog_seconds;
  o.resume_path = std::move(resume_path);
  return o;
}

std::vector<scenario::Replication> SupervisorJobs(int reps) {
  std::vector<scenario::Replication> jobs;
  for (int rep = 0; rep < reps; ++rep) {
    scenario::ScenarioConfig cfg;
    cfg.duration = 2 * kSecond;
    cfg.seed = scenario::SweepSeed(0xC4A05, 0, static_cast<std::uint64_t>(rep));
    jobs.push_back(scenario::Replication{cfg, nullptr, 0, rep, {}});
  }
  return jobs;
}

// Deterministic pure-function body: result and metrics depend only on the
// replication's seed, never on threads or timing.
scenario::ScenarioResult SeedBody(const scenario::Replication& job) {
  scenario::ScenarioResult r;
  const std::uint64_t mod97 = job.config.seed % 97;
  const std::uint64_t mod1009 = job.config.seed % 1009;
  r.fraction_connected = static_cast<double>(mod97) / 97.0;
  r.total_throughput_bps = static_cast<double>(mod1009);
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  metrics->Add(metrics->Counter("body.seed_mod"),
               job.config.seed % 31);
  r.metrics = metrics;
  return r;
}

TEST(SweepSupervisorTest, RetrySucceedsOnSecondAttempt) {
  const auto jobs = SupervisorJobs(3);
  std::atomic<int> rep1_attempts{0};
  scenario::SweepSupervisor sup(Opts(2, 3));
  const auto outcomes = sup.Run(jobs, [&](const scenario::Replication& job) {
    if (job.rep == 1 && rep1_attempts.fetch_add(1) == 0) {
      throw std::runtime_error("transient failure");
    }
    return SeedBody(job);
  });
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[1].error, nullptr);
  EXPECT_EQ(outcomes[1].attempts, 2);
  EXPECT_FALSE(outcomes[1].quarantined);
  EXPECT_EQ(sup.retries(), 1u);
  EXPECT_EQ(sup.quarantined(), 0u);
  EXPECT_TRUE(sup.failures().empty());
}

TEST(SweepSupervisorTest, ExhaustedRetriesQuarantineWithRecord) {
  const auto jobs = SupervisorJobs(3);
  scenario::SweepSupervisor sup(Opts(2, 2));
  const auto outcomes = sup.Run(jobs, [&](const scenario::Replication& job) {
    if (job.rep == 2) throw std::runtime_error("hard failure in rep 2");
    return SeedBody(job);
  });
  EXPECT_NE(outcomes[2].error, nullptr);
  EXPECT_TRUE(outcomes[2].quarantined);
  EXPECT_EQ(outcomes[2].attempts, 2);
  EXPECT_EQ(sup.retries(), 1u);
  EXPECT_EQ(sup.quarantined(), 1u);
  ASSERT_EQ(sup.failures().size(), 1u);
  const scenario::FailureRecord& rec = sup.failures()[0];
  EXPECT_EQ(rec.rep, 2);
  EXPECT_EQ(rec.seed, jobs[2].config.seed);
  EXPECT_EQ(rec.attempts, 2);
  EXPECT_EQ(rec.error, "hard failure in rep 2");
  EXPECT_TRUE(rec.quarantined);
  const json::Value doc = sup.FailuresToJson();
  const json::Value* failures = doc.Find("failures");
  ASSERT_NE(failures, nullptr);
  ASSERT_EQ(failures->as_array().size(), 1u);
  EXPECT_EQ(failures->as_array()[0].Find("seed")->as_string(),
            std::to_string(jobs[2].config.seed));
}

TEST(SweepSupervisorTest, WatchdogConvertsOverDeadlineRunsToFailures) {
  const auto jobs = SupervisorJobs(2);
  scenario::SweepSupervisor sup(Opts(1, 1, 1e-12));
  const auto outcomes = sup.Run(
      jobs, [](const scenario::Replication& job) { return SeedBody(job); });
  EXPECT_EQ(sup.watchdog_expirations(), 2u);
  EXPECT_EQ(sup.quarantined(), 2u);
  for (const auto& out : outcomes) {
    EXPECT_NE(out.error, nullptr);
    EXPECT_EQ(out.error_text, "watchdog deadline exceeded");
  }
}

TEST(SweepSupervisorTest, FailureRecordLandsInBenchArtifact) {
  // Satellite: a replication that dies with an exception leaves the
  // failing seed and exception text in the BENCH_* artifact.
  const auto jobs = SupervisorJobs(2);
  scenario::SweepSupervisor sup(Opts(1, 1));
  const auto outcomes = sup.Run(jobs, [](const scenario::Replication& job) {
    if (job.rep == 1) throw std::runtime_error("exploded at subframe 7");
    return SeedBody(job);
  });

  ASSERT_EQ(setenv("CELLFI_BENCH_OUT", ProcessTempDir().c_str(), 1), 0);
  scenario::BenchReport report("chaos_supervisor_test", 1, 2);
  report.AddPoint("p0", outcomes, 0);
  const std::string path = report.Write();
  unsetenv("CELLFI_BENCH_OUT");

  std::ifstream file(path);
  ASSERT_TRUE(file.is_open());
  std::ostringstream text;
  text << file.rdbuf();
  const auto doc = json::Parse(text.str());
  ASSERT_TRUE(doc.has_value());
  const json::Value& point = doc->Find("points")->as_array()[0];
  const json::Value* failures = point.Find("failures");
  ASSERT_NE(failures, nullptr);
  ASSERT_EQ(failures->as_array().size(), 1u);
  const json::Value& failure = failures->as_array()[0];
  EXPECT_EQ(failure.Find("rep")->as_int(), 1);
  EXPECT_EQ(failure.Find("seed")->as_string(),
            std::to_string(jobs[1].config.seed));
  EXPECT_EQ(failure.Find("error")->as_string(), "exploded at subframe 7");
  EXPECT_TRUE(failure.Find("quarantined")->as_bool());
}

TEST(SweepSupervisorTest, ResumeRestoresCompletedAndRetriesFailed) {
  const auto jobs = SupervisorJobs(4);
  const std::string resume = TempPath("chaos_sweep_resume.jsonl");
  std::remove(resume.c_str());

  // "Interrupted" first run: reps 0 and 1 complete (rep 1 fails hard),
  // reps 2 and 3 never ran.
  {
    scenario::SweepSupervisor sup(Opts(1, 1, 0.0, resume));
    sup.Run({jobs[0], jobs[1]}, [](const scenario::Replication& job) {
      if (job.rep == 1) throw std::runtime_error("died before interruption");
      return SeedBody(job);
    });
  }

  // Resumed run over the full grid: rep 0 restores from the checkpoint,
  // the failed rep 1 gets a fresh chance, reps 2-3 run for the first time.
  std::atomic<int> bodies_run{0};
  scenario::SweepSupervisor sup(Opts(2, 1, 0.0, resume));
  const auto outcomes = sup.Run(jobs, [&](const scenario::Replication& job) {
    bodies_run.fetch_add(1);
    return SeedBody(job);
  });
  EXPECT_EQ(sup.restored(), 1u);
  EXPECT_EQ(bodies_run.load(), 3);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].restored);
  EXPECT_EQ(outcomes[0].seed, jobs[0].config.seed);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(outcomes[i].restored);
    EXPECT_EQ(outcomes[i].error, nullptr);
  }
}

TEST(SweepSupervisorTest, ResumePathResolvesFromEnv) {
  const std::string resume = TempPath("chaos_env_resume.jsonl");
  ASSERT_EQ(setenv("CELLFI_SWEEP_RESUME", resume.c_str(), 1), 0);
  scenario::SweepSupervisor sup;
  unsetenv("CELLFI_SWEEP_RESUME");
  EXPECT_EQ(sup.resume_path(), resume);
  // Without the env knob (and no option), checkpointing is off.
  scenario::SweepSupervisor plain;
  EXPECT_TRUE(plain.resume_path().empty());
}

// Remove the wall-clock fields from a bench artifact: everything else
// must be byte-identical between an uninterrupted and a resumed sweep.
void StripWallClock(json::Value& doc) {
  doc.as_object().erase("wall_s");
  doc.as_object().erase("replication_wall_s");
  doc.as_object().erase("parallel_speedup");
  doc.as_object().erase("sim_per_wall");
  for (json::Value& point : doc["points"].as_array()) {
    point.as_object().erase("wall_s");
    point.as_object().erase("sim_per_wall");
  }
}

std::string ReadAll(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

TEST(SweepSupervisorTest, ResumedArtifactByteIdenticalModuloWallClock) {
  const auto jobs = SupervisorJobs(4);
  ASSERT_EQ(setenv("CELLFI_BENCH_OUT", ProcessTempDir().c_str(), 1), 0);

  // Uninterrupted reference sweep.
  const std::string resume_a = TempPath("chaos_resume_a.jsonl");
  std::remove(resume_a.c_str());
  std::string path_a;
  {
    scenario::SweepSupervisor sup(Opts(2, 2, 0.0, resume_a));
    const auto outcomes = sup.Run(jobs, SeedBody);
    scenario::BenchReport report("chaos_resume_ref", 2, 4);
    report.AddPoint("p0", outcomes, 0);
    path_a = report.Write();
  }

  // Interrupted after two replications, then resumed over the full grid.
  const std::string resume_b = TempPath("chaos_resume_b.jsonl");
  std::remove(resume_b.c_str());
  {
    scenario::SweepSupervisor sup(Opts(1, 2, 0.0, resume_b));
    sup.Run({jobs[0], jobs[1]}, SeedBody);
  }
  std::string path_b;
  {
    scenario::SweepSupervisor sup(Opts(2, 2, 0.0, resume_b));
    const auto outcomes = sup.Run(jobs, SeedBody);
    EXPECT_EQ(sup.restored(), 2u);
    scenario::BenchReport report("chaos_resume_resumed", 2, 4);
    report.AddPoint("p0", outcomes, 0);
    path_b = report.Write();
  }
  unsetenv("CELLFI_BENCH_OUT");

  auto a = json::Parse(ReadAll(path_a));
  auto b = json::Parse(ReadAll(path_b));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // The bench name is the only intended difference; align it.
  (*a)["bench"] = "chaos_resume";
  (*b)["bench"] = "chaos_resume";
  StripWallClock(*a);
  StripWallClock(*b);
  EXPECT_EQ(a->Dump(), b->Dump());
}

}  // namespace
}  // namespace cellfi
