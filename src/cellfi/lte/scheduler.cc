#include "cellfi/lte/scheduler.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "cellfi/obs/metrics.h"
#include "cellfi/obs/trace.h"
#include "cellfi/phy/cqi_mcs.h"

namespace cellfi::lte {

namespace {

/// CQI used for a UE that has not reported yet (just attached): the most
/// robust MCS.
int EffectiveSubbandCqi(const UeContext& ue, int subchannel) {
  if (!ue.has_cqi()) return kMinCqi;
  return ue.SubbandCqi(subchannel);
}

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
        const int cqi = EffectiveSubbandCqi(ue, s);
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

    // PF metric per (subchannel, ue): instantaneous rate / average rate.
    for (std::size_t s = 0; s < allowed_mask.size(); ++s) {
      if (!allowed_mask[s] || out[s] != -1) continue;
      double best_metric = 0.0;
      int best_ue = -1;
      for (std::size_t u = 0; u < ues.size(); ++u) {
        const UeContext& ue = *ues[u];
        if (ue.harq_dl().active || ue.dl_queue_bytes() == 0) continue;
        const int cqi = EffectiveSubbandCqi(ue, static_cast<int>(s));
        if (cqi < kMinCqi) continue;
        const double metric = CqiEfficiency(cqi) / ue.average_rate();
        if (metric > best_metric) {
          best_metric = metric;
          best_ue = static_cast<int>(u);
        }
      }
      out[s] = best_ue;
    }
  }
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
        const int cqi = EffectiveSubbandCqi(ue, static_cast<int>(s));
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
            EffectiveSubbandCqi(ue, static_cast<int>(s)) >= kMinCqi) {
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
  // Counting sort: bucket each allowed subchannel by its CQI, lay the
  // buckets out from CQI 15 down to 0, and fill each bucket in ascending
  // subchannel order. That is exactly std::stable_sort by `ca > cb`,
  // without its merge buffer.
  std::array<int, kMaxCqi + 1> next{};
  int total = 0;
  for (std::size_t s = 0; s < allowed_mask.size(); ++s) {
    if (!allowed_mask[s]) continue;
    const int cqi = EffectiveSubbandCqi(ue, static_cast<int>(s));
    assert(cqi >= 0 && cqi <= kMaxCqi);
    ++next[static_cast<std::size_t>(cqi)];
    ++total;
  }
  int pos = 0;
  for (int c = kMaxCqi; c >= 0; --c) {
    const int count = next[static_cast<std::size_t>(c)];
    next[static_cast<std::size_t>(c)] = pos;
    pos += count;
  }
  out.reserve(allowed_mask.size());
  out.resize(static_cast<std::size_t>(total));
  for (std::size_t s = 0; s < allowed_mask.size(); ++s) {
    if (!allowed_mask[s]) continue;
    const int cqi = EffectiveSubbandCqi(ue, static_cast<int>(s));
    out[static_cast<std::size_t>(next[static_cast<std::size_t>(cqi)]++)] = static_cast<int>(s);
  }
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
