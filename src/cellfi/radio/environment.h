// RadioEnvironment: node registry + link budget + SINR computation.
//
// All MAC layers (LTE, Wi-Fi) query this one component so that coverage
// comparisons between technologies use identical propagation (Section 6.3.4
// of the paper: "We model loss propagation and noise floor based on our
// range measurements").
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cellfi/common/geometry.h"
#include "cellfi/common/time.h"
#include "cellfi/common/units.h"
#include "cellfi/radio/antenna.h"
#include "cellfi/radio/fading.h"
#include "cellfi/radio/pathloss.h"

namespace cellfi {

/// Identifies a radio node within one RadioEnvironment.
using RadioNodeId = std::uint32_t;

/// Static radio configuration of a node.
struct RadioNode {
  Point position;
  Antenna antenna = Antenna::Omni(0.0);
  double tx_power_dbm = 20.0;
  double noise_figure_db = 7.0;
};

/// Configuration of the shared medium.
struct RadioEnvironmentConfig {
  double carrier_freq_hz = 600.0 * units::MHz;
  double shadowing_sigma_db = 6.0;
  SimTime fading_coherence_time = 50 * kMillisecond;
  bool enable_fading = true;
  /// Rician K-factor (linear). 0 = Rayleigh; ~6-10 for static outdoor
  /// nodes with a line-of-sight component.
  double rician_k = 0.0;
  /// Checked input, not a switch: the below-noise interferer floor it
  /// used to set is gone, and every interferer always counts.
  /// lte::LteNetwork throws std::invalid_argument when it is > 0; values
  /// <= 0 (the old default) are accepted and change nothing. It stays
  /// declared only because the benchmark's copy of scenario::RunLteBased
  /// still assigns it, and goes away together with that copy (ROADMAP.md,
  /// "One scenario assembly").
  double interference_floor_db = 0.0;
  std::uint64_t seed = 1;
};

/// A transmission contributing interference at a receiver: who transmits
/// and with what fraction of its power in the measured band.
struct ActiveTransmitter {
  RadioNodeId node;
  double power_scale = 1.0;  // fraction of tx power in the observed band
};

/// Shared propagation environment for one simulation.
class RadioEnvironment {
 public:
  /// `pathloss` must outlive the environment.
  RadioEnvironment(const PathLossModel& pathloss, RadioEnvironmentConfig config);

  /// Register a node; returns its id.
  RadioNodeId AddNode(RadioNode node);

  /// Move a node (mobility). Invalidates the cached link gains involving
  /// it; O(n) per move, intended for coarse-grained position updates
  /// (hundreds of ms), not per-subframe motion.
  void MoveNode(RadioNodeId id, Point new_position);

  std::size_t node_count() const { return nodes_.size(); }
  const RadioNode& node(RadioNodeId id) const { return nodes_[id]; }

  /// Large-scale link gain (antenna gains - path loss - shadowing), dB.
  /// Symmetric. Cached after first computation.
  double LinkGainDb(RadioNodeId tx, RadioNodeId rx) const;

  /// Received power from `tx` at `rx` on `subchannel` at time `now`,
  /// including fading, dBm. Reads the fading gain through `rx`'s
  /// coherence-block memo (see SinrDb), so it writes `rx`'s state.
  double RxPowerDbm(RadioNodeId tx, RadioNodeId rx, std::uint32_t subchannel,
                    SimTime now) const;

  /// Average received power (no fading), dBm.
  double MeanRxPowerDbm(RadioNodeId tx, RadioNodeId rx) const;

  /// Average received power (no fading), mW — cached; the hot path for
  /// SINR aggregation works entirely in linear units.
  double MeanRxPowerMw(RadioNodeId tx, RadioNodeId rx) const;

  /// Thermal noise power at `rx` over `bandwidth_hz`, dBm.
  double NoiseDbm(RadioNodeId rx, double bandwidth_hz) const;

  /// Thermal noise power at `rx` over `bandwidth_hz`, mW — memoized per
  /// receiver for the last two bandwidths queried (MAC layers alternate
  /// between subchannel and full-band evaluations at the same receiver),
  /// so the SINR hot path pays no log/pow.
  double NoiseMw(RadioNodeId rx, double bandwidth_hz) const;

  /// Monotonic stamp bumped by every AddNode/MoveNode. Consumers that
  /// cache geometry-derived values (InterferenceMap rows, the LTE CRS
  /// penalty cache) compare it to detect mobility invalidation.
  std::uint64_t position_epoch() const { return position_epoch_; }

  /// SINR in dB at `rx` for the signal from `tx` on `subchannel`, given the
  /// set of concurrently active interferers (excluding `tx` itself) and the
  /// per-subchannel bandwidth. `signal_scale` is the fraction of the
  /// transmitter's total power radiated in the measured band (e.g. 1/13 for
  /// one of 13 subchannels under flat PSD, or 1/n_alloc for an uplink
  /// transmission concentrating full power into n_alloc subchannels).
  ///
  /// Fills `rx`'s lazily cached state: its mean rx-power row, noise memo
  /// and fading memo. Concurrent calls are safe only for distinct
  /// receivers (receiver ownership, DESIGN.md §15).
  double SinrDb(RadioNodeId tx, RadioNodeId rx, std::uint32_t subchannel, SimTime now,
                const std::vector<ActiveTransmitter>& interferers,
                double bandwidth_hz, double signal_scale = 1.0) const;

  /// SNR in dB with no interference (wideband, no fading).
  double MeanSnrDb(RadioNodeId tx, RadioNodeId rx, double bandwidth_hz) const;

  const RadioEnvironmentConfig& config() const { return config_; }
  const FadingProcess& fading() const { return fading_; }

 private:
  const PathLossModel& pathloss_;
  RadioEnvironmentConfig config_;
  ShadowingField shadowing_;
  FadingProcess fading_;
  std::vector<RadioNode> nodes_;
  mutable std::vector<double> gain_cache_;  // n*n link gain dB, NaN = unset
  /// n*n mean rx power mW, NaN = unset. Receiver-major: row rx*n holds the
  /// power received at `rx` from every transmitter contiguously, so one
  /// SINR aggregation walks a single cache line run instead of striding.
  mutable std::vector<double> rx_mw_cache_;
  /// Per-receiver two-slot (bandwidth_hz, noise_mw) memo for NoiseMw,
  /// most-recently-used first. One slot thrashes when callers alternate
  /// between subchannel and full-band noise at the same receiver.
  struct NoiseMemo {
    double bandwidth_hz[2] = {0.0, 0.0};
    double noise_mw[2] = {0.0, 0.0};
  };
  mutable std::vector<NoiseMemo> noise_mw_cache_;
  /// Fading power gains one receiver has read in one coherence block,
  /// keyed by (tx << 32 | subchannel): an open-addressed table with
  /// linear probing, power-of-two capacity grown at 3/4 load, emptied when
  /// the block changes. Its size follows the pairs the receiver actually
  /// queries, never n*n*S. Block fading makes every hit bit-identical to a
  /// fresh FadingProcess::PowerGain; position-independent, so MoveNode
  /// keeps it.
  struct FadingMemo {
    struct Slot {
      std::uint64_t key = 0;
      double gain = -1.0;  // < 0 = empty (power gains are >= 0)
    };
    std::uint64_t block = 0;
    std::size_t used = 0;
    std::vector<Slot> slots;  // empty or a power of two, at most 3/4 used
    /// Index of `key`'s slot, or of the empty slot it would take.
    /// Requires a non-empty table.
    std::size_t Probe(std::uint64_t key) const;
    /// Double the table (16 slots first), re-inserting every entry.
    void Grow();
  };
  mutable std::vector<FadingMemo> fading_memo_;  // one per receiver
  /// `rx`'s fading memo, emptied first if `now` is in a new block.
  FadingMemo& FadingMemoAt(RadioNodeId rx, SimTime now) const;
  /// fading_.PowerGain(tx, rx, subchannel, now) through `memo`, which must
  /// be FadingMemoAt(rx, now).
  double FadingGain(FadingMemo& memo, RadioNodeId tx, RadioNodeId rx,
                    std::uint32_t subchannel, SimTime now) const;
  std::uint64_t position_epoch_ = 1;
};

}  // namespace cellfi
