// CellfiController: wires one InterferenceManager per cell into a live
// LteNetwork.
//
// The controller is the glue the paper describes in Fig. 3: it consumes the
// network's PRACH observations and CQI reports (the only sensing CellFi
// allows itself — no X2, no inter-AP messages), builds each cell's
// EpochInputs once a second, and pushes the resulting subchannel mask into
// the standard scheduler. Measurement imperfections from Section 6.3
// (80 % interference-detection probability, 2 % false positives) are
// injected here, exactly as in the paper's ns-3 setup.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cellfi/core/cqi_detector.h"
#include "cellfi/core/interference_manager.h"
#include "cellfi/core/prach_sensor.h"
#include "cellfi/lte/network.h"

namespace cellfi::core {

struct CellfiControllerConfig {
  InterferenceManagerConfig im;  // num_subchannels filled from the network
  CqiDetectorConfig detector;
  SimTime epoch = 1 * kSecond;
  /// Probability that real interference on a subchannel is detected in an
  /// epoch (paper Section 6.3.2: ~80 %). 1.0 = ideal sensing.
  double detection_probability = 0.8;
  /// Probability of a spurious detection per (client, subchannel) epoch
  /// (paper: <2 %).
  double false_positive_rate = 0.02;
  std::uint64_t seed = 1;
};

class CellfiController {
 public:
  /// Attaches to `net`'s observer hooks. Call before net.Start().
  CellfiController(Simulator& sim, lte::LteNetwork& net, CellfiControllerConfig config);

  /// Schedule the per-cell epochs (randomly staggered: APs need no mutual
  /// synchronization).
  void Start();

  const InterferenceManager& manager(lte::CellId cell) const {
    return *managers_[static_cast<std::size_t>(cell)];
  }
  const PrachSensor& sensor(lte::CellId cell) const {
    return sensors_[static_cast<std::size_t>(cell)];
  }

  /// Aggregate traffic tier (DESIGN.md §18): `observer` currently hears
  /// `count` synthetic background clients attached to `serving`. Counts
  /// flow into the observer's PrachSensor with the standard one-epoch
  /// expiry, so NP_i / N_i bookkeeping is exact: each injected client is
  /// one contender, own clients are those with serving == observer.
  void SetAggregateContenders(lte::CellId observer, lte::CellId serving, int count);

  /// `ue`'s CQI detector at `cell`, or nullptr before the UE's first
  /// report there (test hook).
  const CqiInterferenceDetector* detector(lte::CellId cell, lte::UeId ue) const {
    return detectors_[static_cast<std::size_t>(cell)].Find(ue);
  }

  /// Total bucket-exhaustion hops across all cells (convergence metric).
  std::uint64_t total_hops() const;

  /// Cells that hopped in their most recent epoch (non-convergence probe).
  int cells_hopping_recently() const;

 private:
  void RunEpoch(lte::CellId cell);
  /// Fill `inputs_` for `cell` in place (no allocation once warmed up).
  void BuildInputs(lte::CellId cell);

  Simulator& sim_;
  lte::LteNetwork& net_;
  CellfiControllerConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<InterferenceManager>> managers_;
  std::vector<PrachSensor> sensors_;
  /// One cell's detectors, one per UE that ever reported to it, fed from
  /// the cell's CQI reports. A detector is kept when its UE leaves, so a
  /// UE that hands over and comes back resumes it.
  struct CellDetectors {
    /// UE id -> index into `detectors`; -1 (or past the end) = none yet.
    std::vector<std::int32_t> index_of_ue;
    std::vector<CqiInterferenceDetector> detectors;  // in first-report order

    /// The UE's detector, or nullptr.
    const CqiInterferenceDetector* Find(lte::UeId ue) const;
  };
  /// The UE's detector at `cell`, created on its first report.
  CqiInterferenceDetector& DetectorFor(lte::CellId cell, lte::UeId ue);
  std::vector<CellDetectors> detectors_;
  /// Per-cell, per-subchannel epochs since last detection (re-use packing).
  std::vector<std::vector<int>> free_streak_;
  std::vector<int> last_epoch_hops_;
  int num_subchannels_ = 0;
  // Per-epoch scratch, reused across cells and epochs.
  EpochInputs inputs_;
  std::vector<bool> any_detection_;
  std::vector<double> share_;
  std::vector<bool> mask_;
};

}  // namespace cellfi::core
