// RadioEnvironment: node registry + link budget + SINR computation.
//
// All MAC layers (LTE, Wi-Fi) query this one component so that coverage
// comparisons between technologies use identical propagation (Section 6.3.4
// of the paper: "We model loss propagation and noise floor based on our
// range measurements").
#pragma once

#include <cstdint>
#include <limits>
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

  /// Register a node; returns its id. O(1) amortised: the node gets an
  /// empty receiver record, and no other receiver's state is touched.
  RadioNodeId AddNode(RadioNode node);

  /// Move a node (mobility). Invalidates the cached link gains involving
  /// it; O(n) per move, intended for coarse-grained position updates
  /// (hundreds of ms), not per-subframe motion.
  void MoveNode(RadioNodeId id, Point new_position);

  std::size_t node_count() const { return nodes_.size(); }
  const RadioNode& node(RadioNodeId id) const { return nodes_[id]; }

  /// Large-scale link gain (antenna gains - path loss - shadowing), dB.
  /// Symmetric, bit for bit: every term is symmetric or commutes. Cached in
  /// `rx`'s link row after first computation.
  double LinkGainDb(RadioNodeId tx, RadioNodeId rx) const;

  /// Average received power (no fading), dBm.
  double MeanRxPowerDbm(RadioNodeId tx, RadioNodeId rx) const;

  /// Average received power (no fading), mW — cached in `rx`'s link row;
  /// the hot path for SINR aggregation works entirely in linear units.
  double MeanRxPowerMw(RadioNodeId tx, RadioNodeId rx) const;

  /// Thermal noise power at `rx` over `bandwidth_hz`, dBm.
  double NoiseDbm(RadioNodeId rx, double bandwidth_hz) const;

  /// Thermal noise power at `rx` over `bandwidth_hz`, mW — memoized per
  /// receiver for the last two bandwidths queried (MAC layers alternate
  /// between subchannel and full-band evaluations at the same receiver),
  /// so the SINR hot path pays no log/pow.
  double NoiseMw(RadioNodeId rx, double bandwidth_hz) const;

  /// Monotonic stamp bumped by every AddNode/MoveNode. Consumers that
  /// cache geometry-derived values (the InterferenceMap SINR memo, the LTE CRS
  /// penalty cache) compare it to detect mobility invalidation.
  std::uint64_t position_epoch() const { return position_epoch_; }

  /// SINR in dB at `rx` for the signal from `tx` on `subchannel`, given the
  /// set of concurrently active interferers (excluding `tx` itself) and the
  /// per-subchannel bandwidth. `signal_scale` is the fraction of the
  /// transmitter's total power radiated in the measured band (e.g. 1/13 for
  /// one of 13 subchannels under flat PSD, or 1/n_alloc for an uplink
  /// transmission concentrating full power into n_alloc subchannels).
  /// InterferenceMap (DESIGN.md §12) is interning + an exact memo over
  /// this one computation.
  ///
  /// Fills `rx`'s lazily cached state: its link row, noise memo and fading
  /// memo. Every query, this one included, writes only its receiver's
  /// record, so concurrent calls are safe for distinct receivers (receiver
  /// ownership, DESIGN.md §15).
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
  /// One link's cached LinkGainDb and MeanRxPowerMw, NaN = unset.
  struct Link {
    double gain_db = std::numeric_limits<double>::quiet_NaN();
    double mean_mw = std::numeric_limits<double>::quiet_NaN();
  };
  /// Two-slot (bandwidth_hz, noise_mw) memo for NoiseMw, most-recently-used
  /// first. One slot thrashes when callers alternate between subchannel and
  /// full-band noise at the same receiver.
  struct NoiseMemo {
    double bandwidth_hz[2] = {0.0, 0.0};
    double noise_mw[2] = {0.0, 0.0};
  };
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
  /// Everything cached for one receiver; only queries at that receiver
  /// touch it. `links` is indexed by transmitter and sized on the first
  /// query, so a receiver nobody asks about never gets a row.
  struct Receiver {
    std::vector<Link> links;
    NoiseMemo noise;
    FadingMemo fading;
  };
  mutable std::vector<Receiver> rx_;  // one per node
  /// `rx`'s link row, extended to node_count() first.
  Link* LinkRow(RadioNodeId rx) const;
  /// MeanRxPowerMw through `row`, which must be LinkRow(rx).
  double MeanMw(Link* row, RadioNodeId tx, RadioNodeId rx) const;
  /// `rx`'s fading memo, emptied first if `now` is in a new block.
  FadingMemo& FadingMemoAt(RadioNodeId rx, SimTime now) const;
  /// fading_.PowerGain(tx, rx, subchannel, now) through `memo`, which must
  /// be FadingMemoAt(rx, now).
  double FadingGain(FadingMemo& memo, RadioNodeId tx, RadioNodeId rx,
                    std::uint32_t subchannel, SimTime now) const;
  std::uint64_t position_epoch_ = 1;
};

}  // namespace cellfi
