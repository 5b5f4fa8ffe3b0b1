#include "cellfi/core/cellfi_controller.h"

#include <algorithm>
#include <cassert>

#include "cellfi/chaos/invariants.h"
#include "cellfi/obs/trace.h"
#include "cellfi/phy/cqi_mcs.h"

namespace cellfi::core {

using lte::CellId;
using lte::UeId;

CellfiController::CellfiController(Simulator& sim, lte::LteNetwork& net,
                                   CellfiControllerConfig config)
    : sim_(sim), net_(net), config_(config), rng_(config.seed) {
  assert(net.cell_count() > 0);
  num_subchannels_ = net.cell(0).grid().num_subchannels();
  config_.im.num_subchannels = num_subchannels_;

  for (std::size_t c = 0; c < net.cell_count(); ++c) {
    InterferenceManagerConfig im_config = config_.im;
    im_config.instance = static_cast<int>(c);
    managers_.push_back(std::make_unique<InterferenceManager>(
        im_config, config_.seed ^ (0x1000 + c)));
    sensors_.emplace_back(static_cast<CellId>(c), config_.epoch);
    detectors_.emplace_back();
    free_streak_.emplace_back(static_cast<std::size_t>(num_subchannels_), 0);
    last_epoch_hops_.push_back(0);
  }

  net_.on_prach = [this](const lte::PrachObservation& o) {
    sensors_[static_cast<std::size_t>(o.observer)].OnPreamble(o.ue, o.serving, sim_.Now());
  };
  net_.on_cqi_report = [this](CellId cell, UeId ue, const CqiMeasurement& m) {
    DetectorFor(cell, ue).AddReport(m.subband_cqi);
  };
}

const CqiInterferenceDetector* CellfiController::CellDetectors::Find(UeId ue) const {
  const auto u = static_cast<std::size_t>(ue);
  if (u >= index_of_ue.size() || index_of_ue[u] < 0) return nullptr;
  return &detectors[static_cast<std::size_t>(index_of_ue[u])];
}

CqiInterferenceDetector& CellfiController::DetectorFor(CellId cell, UeId ue) {
  CellDetectors& per_cell = detectors_[static_cast<std::size_t>(cell)];
  const auto u = static_cast<std::size_t>(ue);
  if (u >= per_cell.index_of_ue.size()) {
    // Sized for every UE the network has at once, so it grows only if UEs
    // are added after the run starts.
    per_cell.index_of_ue.resize(std::max(u + 1, net_.ue_count()), -1);
  }
  std::int32_t& index = per_cell.index_of_ue[u];
  if (index < 0) {
    index = static_cast<std::int32_t>(per_cell.detectors.size());
    per_cell.detectors.emplace_back(num_subchannels_, config_.detector);
  }
  return per_cell.detectors[static_cast<std::size_t>(index)];
}

void CellfiController::SetAggregateContenders(CellId observer, CellId serving,
                                              int count) {
  sensors_[static_cast<std::size_t>(observer)].SetAggregateContenders(
      serving, count, sim_.Now());
}

void CellfiController::Start() {
  for (std::size_t c = 0; c < managers_.size(); ++c) {
    const CellId cell = static_cast<CellId>(c);
    // Epochs need no cross-AP synchronization: stagger randomly.
    const SimTime offset = rng_.UniformInt(100, 999) * kMillisecond;
    sim_.ScheduleAfter(offset, [this, cell] {
      RunEpoch(cell);
      sim_.SchedulePeriodic(config_.epoch, [this, cell] { RunEpoch(cell); });
    });
  }
}

void CellfiController::BuildInputs(CellId cell) {
  EpochInputs& in = inputs_;
  const SimTime now = sim_.Now();
  const PrachSensor& sensor = sensors_[static_cast<std::size_t>(cell)];
  in.own_active_clients = sensor.OwnActive(now);
  in.estimated_contenders = sensor.EstimateContenders(now);
  // assign() keeps the capacity, so only a controller's first epoch allocates.
  in.utility.assign(static_cast<std::size_t>(num_subchannels_), 0.0);
  in.interference_pressure.assign(static_cast<std::size_t>(num_subchannels_), 0.0);
  in.free_for_reuse.assign(static_cast<std::size_t>(num_subchannels_), false);

  lte::EnodeB& enb = net_.cell(cell);
  const auto& stats = enb.schedule_stats();
  const double dl_subframes = std::max(stats.dl_subframes, 1);
  const CellDetectors& per_cell_detectors = detectors_[static_cast<std::size_t>(cell)];

  any_detection_.assign(static_cast<std::size_t>(num_subchannels_), false);

  for (const auto& ue_ptr : enb.ues()) {
    const UeId ue = ue_ptr->id();
    // Scheduled-time fraction per subchannel for this client.
    const auto sched_it = stats.ue_subchannel_subframes.find(ue);
    double total_sched_frac = 0.0;
    if (sched_it != stats.ue_subchannel_subframes.end()) {
      for (int count : sched_it->second) {
        total_sched_frac += static_cast<double>(count) / dl_subframes;
      }
    }

    const CqiInterferenceDetector* detector = per_cell_detectors.Find(ue);
    for (int s = 0; s < num_subchannels_; ++s) {
      // Utility: achievable throughput from the last CQI reading, scaled by
      // how much this client was actually scheduled (Section 5.3).
      in.utility[static_cast<std::size_t>(s)] +=
          CqiEfficiency(ue_ptr->SubbandCqi(s)) * std::max(total_sched_frac, 0.05);

      // Interference pressure with the measured detector imperfections.
      // Only clients actually scheduled on the subchannel contribute
      // (Section 5.3: the decrement is frac_j, their scheduled-time share).
      const bool truly_detected = detector != nullptr && detector->Detected(s);
      if (truly_detected) any_detection_[static_cast<std::size_t>(s)] = true;
      double frac_j = 0.0;
      if (sched_it != stats.ue_subchannel_subframes.end()) {
        frac_j = static_cast<double>(sched_it->second[static_cast<std::size_t>(s)]) /
                 dl_subframes;
      }
      if (frac_j <= 0.0) continue;
      const bool effective = truly_detected
                                 ? rng_.Bernoulli(config_.detection_probability)
                                 : rng_.Bernoulli(config_.false_positive_rate);
      if (effective) in.interference_pressure[static_cast<std::size_t>(s)] += frac_j;
    }
  }

  // Channel re-use: a subchannel is a packing target after being observed
  // free for `reuse_free_epochs` contiguous epochs by every client.
  auto& streaks = free_streak_[static_cast<std::size_t>(cell)];
  for (int s = 0; s < num_subchannels_; ++s) {
    if (any_detection_[static_cast<std::size_t>(s)]) {
      streaks[static_cast<std::size_t>(s)] = 0;
    } else {
      ++streaks[static_cast<std::size_t>(s)];
    }
    in.free_for_reuse[static_cast<std::size_t>(s)] =
        streaks[static_cast<std::size_t>(s)] >= config_.im.reuse_free_epochs;
  }

  if (chaos::InvariantChecker* ic = chaos::ActiveChecker()) {
    // Scheduled-time shares per subchannel must sum to at most one across
    // the cell's clients: a sum above one means the epoch scheduled
    // overlapping grants. Accumulate in UE-list order (deterministic), not
    // map order.
    share_.assign(static_cast<std::size_t>(num_subchannels_), 0.0);
    for (const auto& ue_ptr : enb.ues()) {
      const auto it = stats.ue_subchannel_subframes.find(ue_ptr->id());
      if (it == stats.ue_subchannel_subframes.end()) continue;
      for (int s = 0; s < num_subchannels_; ++s) {
        share_[static_cast<std::size_t>(s)] +=
            static_cast<double>(it->second[static_cast<std::size_t>(s)]) / dl_subframes;
      }
    }
    for (int s = 0; s < num_subchannels_; ++s) {
      ic->CheckShareSum(static_cast<int>(cell), s, share_[static_cast<std::size_t>(s)],
                        now);
    }
  }

  enb.ResetScheduleStats();
}

void CellfiController::RunEpoch(CellId cell) {
  BuildInputs(cell);
  const EpochInputs& in = inputs_;
  if (obs::TraceSink* tr = obs::ActiveTrace()) {
    tr->Emit(sim_.Now(), "prach", "contention",
             {{"cell", cell},
              {"own", in.own_active_clients},
              {"contenders", in.estimated_contenders}});
  }
  InterferenceManager& im = *managers_[static_cast<std::size_t>(cell)];
  mask_ = im.OnEpoch(in);
  last_epoch_hops_[static_cast<std::size_t>(cell)] = im.last_stats().hops;
  if (im.owned_count() == 0) {
    // An AP with no sensed clients yet keeps the full mask so that newly
    // attaching clients can be served; shares kick in once PRACH estimates
    // exist.
    mask_.assign(static_cast<std::size_t>(num_subchannels_), true);
  }
  net_.SetAllowedMask(cell, mask_);
}

std::uint64_t CellfiController::total_hops() const {
  std::uint64_t total = 0;
  for (const auto& m : managers_) total += m->total_hops();
  return total;
}

int CellfiController::cells_hopping_recently() const {
  int n = 0;
  for (int hops : last_epoch_hops_) {
    if (hops > 0) ++n;
  }
  return n;
}

}  // namespace cellfi::core
