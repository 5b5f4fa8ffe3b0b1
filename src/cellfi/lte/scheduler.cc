#include "cellfi/lte/scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "cellfi/obs/metrics.h"
#include "cellfi/obs/trace.h"
#include "cellfi/phy/cqi_mcs.h"

namespace cellfi::lte {

namespace {

/// What every concrete scheduler shares: the HARQ-first claim, the one
/// backlog-ordered uplink policy, and the ranking/order scratch they run
/// on. The scratch grows to the subchannel and UE counts once and is then
/// reused, so a steady-state pass allocates nothing.
class SchedulerBase : public Scheduler {
 public:
  void AssignUplink(const std::vector<UeContext*>& ues, const std::vector<bool>& allowed_mask,
                    int data_re_per_rb, int rbs_per_subchannel,
                    SubchannelAssignment& out) final {
    out.assign(allowed_mask.size(), -1);

    // Serve UEs in decreasing backlog; size each grant to the demand so a
    // TCP-ACK-only uplink occupies a single (best) subchannel.
    OrderByUplinkBacklog(ues, order_);
    for (std::size_t u : order_) {
      const UeContext& ue = *ues[u];
      std::uint64_t needed_bits = 8 * ue.ul_queue_bytes();
      if (ue.harq_ul().active) {
        ClaimBest(ue, ue.harq_ul().num_subchannels, allowed_mask, out, static_cast<int>(u));
        continue;
      }
      if (needed_bits == 0) continue;
      RankSubchannelsByCqi(ue, allowed_mask, ranked_);
      for (int s : ranked_) {
        if (needed_bits == 0) break;
        if (out[static_cast<std::size_t>(s)] != -1) continue;
        out[static_cast<std::size_t>(s)] = static_cast<int>(u);
        const int cqi = ue.EffectiveSubbandCqi(s);
        const std::uint64_t tb =
            static_cast<std::uint64_t>(TransportBlockBits(cqi, rbs_per_subchannel,
                                                          data_re_per_rb));
        needed_bits -= std::min(needed_bits, std::max<std::uint64_t>(tb, 1));
      }
    }
  }

 protected:
  /// Start of every downlink pass: clear `out`, then give each pending
  /// HARQ retransmission its original width on its best subchannels.
  void ClaimHarqRetransmissions(const std::vector<UeContext*>& ues,
                                const std::vector<bool>& allowed_mask,
                                SubchannelAssignment& out) {
    out.assign(allowed_mask.size(), -1);
    for (std::size_t u = 0; u < ues.size(); ++u) {
      const HarqState& h = ues[u]->harq_dl();
      if (h.active) {
        ClaimBest(*ues[u], h.num_subchannels, allowed_mask, out, static_cast<int>(u));
      }
    }
  }

 private:
  /// Claim up to `count` of the UE's best allowed, unassigned subchannels.
  void ClaimBest(const UeContext& ue, int count, const std::vector<bool>& allowed_mask,
                 SubchannelAssignment& out, int ue_index) {
    RankSubchannelsByCqi(ue, allowed_mask, ranked_);
    int claimed = 0;
    for (int s : ranked_) {
      if (claimed >= count) break;
      if (out[static_cast<std::size_t>(s)] != -1) continue;
      out[static_cast<std::size_t>(s)] = ue_index;
      ++claimed;
    }
  }

  std::vector<int> ranked_;
  std::vector<std::size_t> order_;
};

class ProportionalFairScheduler final : public SchedulerBase {
 public:
  void AssignDownlink(const std::vector<UeContext*>& ues, const std::vector<bool>& allowed_mask,
                      SubchannelAssignment& out) override {
    ClaimHarqRetransmissions(ues, allowed_mask, out);

    // PF metric per (subchannel, ue): instantaneous rate / average rate,
    // from each UE's cached efficiency row. UE-major: a subchannel goes to
    // the first UE (in list order) with the strictly largest positive
    // metric. Subchannels not open to PF start at +inf, so no metric takes
    // them.
    constexpr double kClosed = std::numeric_limits<double>::infinity();
    best_metric_.resize(allowed_mask.size());
    for (std::size_t s = 0; s < allowed_mask.size(); ++s) {
      best_metric_[s] = allowed_mask[s] && out[s] == -1 ? 0.0 : kClosed;
    }
    for (std::size_t u = 0; u < ues.size(); ++u) {
      const UeContext& ue = *ues[u];
      if (ue.harq_dl().active || ue.dl_queue_bytes() == 0) continue;
      const std::vector<double>& efficiency = ue.cqi_efficiency();
      const double average_rate = ue.average_rate();
      for (std::size_t s = 0; s < allowed_mask.size(); ++s) {
        // Efficiency 0 (CQI 0) gives metric 0, which never wins.
        const double metric = efficiency[s] / average_rate;
        if (metric > best_metric_[s]) {
          best_metric_[s] = metric;
          out[s] = static_cast<int>(u);
        }
      }
    }
  }

 private:
  std::vector<double> best_metric_;
};

// Greedy: every subchannel to whoever can move the most bits through it.
// Maximizes cell throughput; cell-edge users starve whenever someone with
// better CQI wants the same subchannels (the classic fairness trade-off the
// PF scheduler exists to fix).
class MaxCqiScheduler final : public SchedulerBase {
 public:
  void AssignDownlink(const std::vector<UeContext*>& ues, const std::vector<bool>& allowed_mask,
                      SubchannelAssignment& out) override {
    ClaimHarqRetransmissions(ues, allowed_mask, out);
    for (std::size_t s = 0; s < allowed_mask.size(); ++s) {
      if (!allowed_mask[s] || out[s] != -1) continue;
      int best_cqi = 0;
      int best_ue = -1;
      for (std::size_t u = 0; u < ues.size(); ++u) {
        const UeContext& ue = *ues[u];
        if (ue.harq_dl().active || ue.dl_queue_bytes() == 0) continue;
        const int cqi = ue.EffectiveSubbandCqi(static_cast<int>(s));
        if (cqi > best_cqi) {
          best_cqi = cqi;
          best_ue = static_cast<int>(u);
        }
      }
      out[s] = best_ue;
    }
  }
};

class RoundRobinScheduler final : public SchedulerBase {
 public:
  void AssignDownlink(const std::vector<UeContext*>& ues, const std::vector<bool>& allowed_mask,
                      SubchannelAssignment& out) override {
    ClaimHarqRetransmissions(ues, allowed_mask, out);
    if (ues.empty()) return;
    std::size_t cursor = cursor_++ % ues.size();
    for (std::size_t s = 0; s < allowed_mask.size(); ++s) {
      if (!allowed_mask[s] || out[s] != -1) continue;
      for (std::size_t probe = 0; probe < ues.size(); ++probe) {
        const UeContext& ue = *ues[cursor % ues.size()];
        if (!ue.harq_dl().active && ue.dl_queue_bytes() > 0 &&
            ue.EffectiveSubbandCqi(static_cast<int>(s)) >= kMinCqi) {
          out[s] = static_cast<int>(cursor % ues.size());
          ++cursor;
          break;
        }
        ++cursor;
      }
    }
  }

 private:
  std::size_t cursor_ = 0;
};

/// Decorator around any concrete scheduler: records the fraction of the
/// allowed subchannels each pass actually assigned into the ambient
/// MetricsRegistry (DESIGN.md §13). Pure pass-through when no registry is
/// scoped; never alters the assignment.
class ObservedScheduler final : public Scheduler {
 public:
  explicit ObservedScheduler(std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {}

  void AssignDownlink(const std::vector<UeContext*>& ues, const std::vector<bool>& allowed_mask,
                      SubchannelAssignment& out) override {
    inner_->AssignDownlink(ues, allowed_mask, out);
    Observe("sched.dl_assigned_frac", out, allowed_mask);
  }

  void AssignUplink(const std::vector<UeContext*>& ues, const std::vector<bool>& allowed_mask,
                    int data_re_per_rb, int rbs_per_subchannel,
                    SubchannelAssignment& out) override {
    inner_->AssignUplink(ues, allowed_mask, data_re_per_rb, rbs_per_subchannel, out);
    Observe("sched.ul_assigned_frac", out, allowed_mask);
  }

 private:
  static void Observe(const char* name, const SubchannelAssignment& a,
                      const std::vector<bool>& allowed_mask) {
    if (obs::MetricsRegistry* m = obs::ActiveMetrics()) {
      int assigned = 0;
      int allowed = 0;
      for (std::size_t s = 0; s < allowed_mask.size(); ++s) {
        if (!allowed_mask[s]) continue;
        ++allowed;
        if (a[s] >= 0) ++assigned;
      }
      if (allowed > 0) {
        m->Observe(m->Histogram(name, obs::FractionBounds()),
                   static_cast<double>(assigned) / static_cast<double>(allowed));
      }
    }
  }

  std::unique_ptr<Scheduler> inner_;
};

}  // namespace

void RankSubchannelsByCqi(const UeContext& ue, const std::vector<bool>& allowed_mask,
                          std::vector<int>& out) {
  // The UE's cached order (rebuilt only when its report changes),
  // filtered by the mask.
  assert(allowed_mask.size() == ue.cqi_order().size());
  out.resize(allowed_mask.size());
  std::size_t kept = 0;
  for (int s : ue.cqi_order()) {
    out[kept] = s;
    kept += allowed_mask[static_cast<std::size_t>(s)] ? 1 : 0;
  }
  out.resize(kept);
}

void OrderByUplinkBacklog(const std::vector<UeContext*>& ues, std::vector<std::size_t>& out) {
  // Insertion sort, shifting only strictly smaller backlogs: equal
  // backlogs keep list order, as std::stable_sort would (without its
  // merge buffer). Cells hold a handful of UEs.
  out.clear();
  for (std::size_t u = 0; u < ues.size(); ++u) {
    const std::uint64_t backlog = ues[u]->ul_queue_bytes();
    out.push_back(u);
    std::size_t i = out.size() - 1;
    for (; i > 0 && ues[out[i - 1]]->ul_queue_bytes() < backlog; --i) out[i] = out[i - 1];
    out[i] = u;
  }
}

std::unique_ptr<Scheduler> MakeScheduler(SchedulerType type) {
  std::unique_ptr<Scheduler> inner;
  switch (type) {
    case SchedulerType::kRoundRobin:
      inner = std::make_unique<RoundRobinScheduler>();
      break;
    case SchedulerType::kMaxCqi:
      inner = std::make_unique<MaxCqiScheduler>();
      break;
    case SchedulerType::kProportionalFair:
    default:
      inner = std::make_unique<ProportionalFairScheduler>();
      break;
  }
  return std::make_unique<ObservedScheduler>(std::move(inner));
}

}  // namespace cellfi::lte
