#include "cellfi/lte/enodeb.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "cellfi/common/units.h"
#include "cellfi/phy/cqi_mcs.h"

namespace cellfi::lte {

EnodeB::EnodeB(CellId id, LteMacConfig config)
    : id_(id),
      config_(config),
      grid_(config.bandwidth, config.pdcch_symbols),
      tdd_(config.tdd_config >= 0 ? TddConfig(config.tdd_config) : TddConfig::FddDownlink()),
      scheduler_(MakeScheduler(config.scheduler)),
      allowed_mask_(static_cast<std::size_t>(grid_.num_subchannels()), true) {}

UeContext& EnodeB::AddUe(UeId ue) {
  assert(FindUe(ue) == nullptr);
  ues_.push_back(std::make_unique<UeContext>(ue, grid_.num_subchannels()));
  // The UE's schedule row exists from attach on (zero reads as unscheduled),
  // so no grant ever allocates one; a row kept from an earlier visit stays.
  schedule_stats_.ue_subchannel_subframes.try_emplace(
      ue, static_cast<std::size_t>(grid_.num_subchannels()), 0);
  return *ues_.back();
}

void EnodeB::RemoveUe(UeId ue) {
  const auto it = std::find_if(ues_.begin(), ues_.end(),
                               [&](const auto& u) { return u->id() == ue; });
  if (it != ues_.end()) ues_.erase(it);
}

UeContext* EnodeB::FindUe(UeId ue) {
  const auto it = std::find_if(ues_.begin(), ues_.end(),
                               [&](const auto& u) { return u->id() == ue; });
  return it != ues_.end() ? it->get() : nullptr;
}

void EnodeB::SetAllowedMask(const std::vector<bool>& mask) {
  assert(static_cast<int>(mask.size()) == grid_.num_subchannels());
  allowed_mask_ = mask;  // same size: copies into the existing storage
}

int EnodeB::allowed_count() const {
  return static_cast<int>(std::count(allowed_mask_.begin(), allowed_mask_.end(), true));
}

void EnodeB::SetBackgroundPrbDemand(double fraction) {
  background_prb_demand_ = std::clamp(fraction, 0.0, 1.0);
}

void TxPlan::Clear(int num_subchannels) {
  transmissions.clear();
  data_active.assign(static_cast<std::size_t>(num_subchannels), false);
  subchannel_pool.clear();
  subchannel_pool.reserve(static_cast<std::size_t>(num_subchannels));
}

UeContext& EnodeB::UeOf(const Transmission& tx) {
  assert(tx.ue_index >= 0 && static_cast<std::size_t>(tx.ue_index) < ues_.size());
  UeContext& ue = *ues_[static_cast<std::size_t>(tx.ue_index)];
  assert(ue.id() == tx.ue);
  return ue;
}

Transmission EnodeB::MakeNewBlock(const UeContext& ue, int ue_index,
                                  std::span<const int> subchannels, bool uplink) const {
  Transmission tx;
  tx.ue = ue.id();
  tx.ue_index = ue_index;
  // Before the first report the efficiency row holds kMinCqi's, so the
  // block goes out at kMinCqi.
  tx.cqi = AggregateCqi(ue.cqi_efficiency(), subchannels);
  int rbs = 0;
  for (int s : subchannels) rbs += grid_.SubchannelRbCount(s);
  tx.tb_bits = TransportBlockBits(tx.cqi, rbs, grid_.DataResourceElementsPerRb());
  const std::uint64_t queued = uplink ? ue.ul_queue_bytes() : ue.dl_queue_bytes();
  tx.payload_bytes = std::min<std::uint64_t>(queued, static_cast<std::uint64_t>(tx.tb_bits / 8));
  tx.subchannels = subchannels;
  return tx;
}

Transmission EnodeB::MakeRetxBlock(const UeContext& ue, int ue_index,
                                   std::span<const int> subchannels, bool uplink) const {
  const HarqState& h = uplink ? ue.harq_ul() : ue.harq_dl();
  Transmission tx;
  tx.ue = ue.id();
  tx.ue_index = ue_index;
  tx.cqi = h.cqi;
  tx.tb_bits = h.tb_bits;
  tx.payload_bytes = h.payload_bytes;
  tx.is_harq_retx = true;
  tx.subchannels = subchannels;
  return tx;
}

void EnodeB::EmitTransmissions(TxPlan& plan, bool uplink) {
  // One bucketing pass over the assignment: count each UE's grants, lay
  // the UEs' runs out in list order, then drop each granted subchannel
  // into its UE's run in ascending order.
  std::vector<int>& pool = plan.subchannel_pool;
  assert(pool.empty() && pool.capacity() >= assignment_.size());
  plan.transmissions.reserve(ues_.size());
  // run_end_[u] ends up as the end of UE u's run, and its start is
  // run_end_[u - 1] (0 for u = 0). Reserved in step with the UE list's
  // capacity, so attaches do not regrow it one UE at a time.
  run_end_.reserve(ues_.capacity() + 1);
  run_end_.assign(ues_.size() + 1, 0);
  for (std::size_t s = 0; s < assignment_.size(); ++s) {
    if (assignment_[s] < 0) continue;
    plan.data_active[s] = true;
    ++run_end_[static_cast<std::size_t>(assignment_[s]) + 1];
  }
  for (std::size_t u = 0; u < ues_.size(); ++u) run_end_[u + 1] += run_end_[u];
  pool.resize(static_cast<std::size_t>(run_end_[ues_.size()]));
  for (std::size_t s = 0; s < assignment_.size(); ++s) {
    if (assignment_[s] < 0) continue;
    pool[static_cast<std::size_t>(run_end_[static_cast<std::size_t>(assignment_[s])]++)] =
        static_cast<int>(s);
  }
  for (std::size_t u = 0; u < ues_.size(); ++u) {
    const int begin = u == 0 ? 0 : run_end_[u - 1];
    if (run_end_[u] == begin) continue;
    const std::span<const int> subchannels(pool.data() + begin,
                                           static_cast<std::size_t>(run_end_[u] - begin));
    const UeContext& ue = *ues_[u];
    const HarqState& h = uplink ? ue.harq_ul() : ue.harq_dl();
    plan.transmissions.push_back(
        h.active ? MakeRetxBlock(ue, static_cast<int>(u), subchannels, uplink)
                 : MakeNewBlock(ue, static_cast<int>(u), subchannels, uplink));
  }
}

void EnodeB::PlanDownlink(TxPlan& plan) {
  plan.Clear(grid_.num_subchannels());

  // Aggregate background reservation (DESIGN.md §18): round(frac * allowed)
  // allowed subchannels go to the background tier — active on air, masked
  // from the real-UE scheduler. The start offset rotates by one allowed
  // subchannel per planned subframe (counter, not RNG: the purity contract
  // on this function forbids stateful draws), so over a control epoch the
  // occupancy spreads evenly and every allowed subchannel is still sampled
  // by real-UE CQI probes. With zero demand this block is skipped and the
  // plan is byte-identical to the pre-tier code.
  const std::vector<bool>* sched_mask = &allowed_mask_;
  if (background_prb_demand_ > 0.0) {
    background_mask_scratch_ = allowed_mask_;
    const int allowed =
        static_cast<int>(std::count(allowed_mask_.begin(), allowed_mask_.end(), true));
    const int reserve = std::min(
        allowed,
        static_cast<int>(std::lround(background_prb_demand_ * allowed)));
    if (allowed > 0 && reserve > 0) {
      const int offset = static_cast<int>(
          background_rotation_ % static_cast<std::uint64_t>(allowed));
      int ordinal = 0;  // position among the allowed subchannels
      for (std::size_t s = 0; s < allowed_mask_.size(); ++s) {
        if (!allowed_mask_[s]) continue;
        if ((ordinal - offset + allowed) % allowed < reserve) {
          background_mask_scratch_[s] = false;
          plan.data_active[s] = true;
        }
        ++ordinal;
      }
    }
    ++background_rotation_;
    sched_mask = &background_mask_scratch_;
  }

  ue_ptrs_.clear();
  for (const auto& u : ues_) ue_ptrs_.push_back(u.get());
  scheduler_->AssignDownlink(ue_ptrs_, *sched_mask, assignment_);
  EmitTransmissions(plan, /*uplink=*/false);

  ++schedule_stats_.dl_subframes;
  for (const Transmission& tx : plan.transmissions) {
    std::vector<int>& counts = schedule_stats_.ue_subchannel_subframes[tx.ue];
    for (int s : tx.subchannels) ++counts[static_cast<std::size_t>(s)];
  }
}

void EnodeB::ResetScheduleStats() {
  schedule_stats_.dl_subframes = 0;
  // cellfi-lint: allow(no-unordered-iter) — zeroes every row, order-free
  for (auto& [ue, counts] : schedule_stats_.ue_subchannel_subframes) {
    std::fill(counts.begin(), counts.end(), 0);
  }
}

void EnodeB::PlanUplink(TxPlan& plan) {
  plan.Clear(grid_.num_subchannels());
  ue_ptrs_.clear();
  for (const auto& u : ues_) ue_ptrs_.push_back(u.get());
  scheduler_->AssignUplink(ue_ptrs_, allowed_mask_, grid_.DataResourceElementsPerRb(),
                           grid_.rbg_size(), assignment_);
  EmitTransmissions(plan, /*uplink=*/true);
}

DeliveryResult EnodeB::Complete(const Transmission& tx, double sinr_db, Rng& rng,
                                bool uplink) {
  DeliveryResult result;
  UeContext& ue = UeOf(tx);
  HarqState& h = uplink ? ue.harq_ul() : ue.harq_dl();

  double combined = tx.is_harq_retx ? h.combined_sinr_linear : 0.0;
  combined += DbToLinear(sinr_db);
  const int attempts = (tx.is_harq_retx ? h.attempts : 0) + 1;
  result.attempts = attempts;

  if (!uplink) {
    if (!tx.is_harq_retx) ++ue.dl_total_blocks;
    if (attempts == 2) ++ue.dl_harq_retx_blocks;
  }

  const bool success =
      tx.cqi >= kMinCqi && !rng.Bernoulli(BlerAt(tx.cqi, LinearToDb(combined)));
  if (success) {
    result.delivered = true;
    result.payload_bytes = tx.payload_bytes;
    if (uplink) {
      ue.DrainUplink(tx.payload_bytes);
      ue.ul_delivered_bits += 8 * tx.payload_bytes;
      total_ul_bits_ += 8 * tx.payload_bytes;
    } else {
      ue.DrainDownlink(tx.payload_bytes);
      ue.dl_delivered_bits += 8 * tx.payload_bytes;
      total_dl_bits_ += 8 * tx.payload_bytes;
    }
    (uplink ? ue.ul_blocks : ue.dl_blocks).Count(tx.cqi, tx.subchannels.size());
    h.Clear();
    return result;
  }

  if (attempts >= config_.harq_max_transmissions) {
    result.dropped = true;
    if (!uplink) ++ue.dl_lost_blocks;
    h.Clear();  // data stays queued; a fresh block will carry it
    return result;
  }

  h.active = true;
  h.cqi = tx.cqi;
  h.tb_bits = tx.tb_bits;
  h.num_subchannels = static_cast<int>(tx.subchannels.size());
  h.payload_bytes = tx.payload_bytes;
  h.combined_sinr_linear = combined;
  h.attempts = attempts;
  return result;
}

DeliveryResult EnodeB::CompleteDownlink(const Transmission& tx, double sinr_db, Rng& rng) {
  return Complete(tx, sinr_db, rng, /*uplink=*/false);
}

DeliveryResult EnodeB::CompleteUplink(const Transmission& tx, double sinr_db, Rng& rng) {
  return Complete(tx, sinr_db, rng, /*uplink=*/true);
}

void EnodeB::UpdatePfAverages(const std::vector<double>& served_bits) {
  assert(served_bits.size() == ues_.size());
  for (std::size_t u = 0; u < ues_.size(); ++u) {
    ues_[u]->UpdatePfAverage(served_bits[u], config_.pf_window_subframes);
  }
}

}  // namespace cellfi::lte
