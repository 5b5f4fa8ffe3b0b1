// Per-UE state kept at the serving eNodeB: RLC queues, CQI, HARQ, and the
// proportional-fair average rate.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cellfi/lte/types.h"
#include "cellfi/phy/cqi_mcs.h"

namespace cellfi::lte {

/// One in-flight HARQ transport block awaiting retransmission.
struct HarqState {
  bool active = false;
  int cqi = 0;               // MCS locked at first transmission
  int tb_bits = 0;           // transport block size
  int num_subchannels = 0;   // allocation width to reproduce on retx
  std::uint64_t payload_bytes = 0;  // queued bytes covered by the block
  double combined_sinr_linear = 0.0;
  int attempts = 0;

  void Clear() { *this = HarqState{}; }
};

/// Delivered transport blocks of one direction, counted by MCS and by
/// grant width: the same multiset a per-block log of code rate
/// (CqiCodeRate(cqi)) and channel fraction (width / num_subchannels) would
/// hold (Fig. 1(b)/(c)), in storage that does not grow with the run.
struct DeliveryCounts {
  explicit DeliveryCounts(int num_subchannels)
      : by_width(static_cast<std::size_t>(num_subchannels) + 1, 0) {}

  void Count(int cqi, std::size_t width) {
    ++by_cqi[static_cast<std::size_t>(cqi)];
    ++by_width[width];
  }

  /// Blocks delivered at each CQI, 0..kMaxCqi.
  std::array<std::uint64_t, kMaxCqi + 1> by_cqi{};
  /// Blocks delivered on each grant width, 0..num_subchannels subchannels.
  std::vector<std::uint64_t> by_width;
};

/// eNodeB-side context for one connected UE.
class UeContext {
 public:
  UeContext(UeId id, int num_subchannels);

  UeId id() const { return id_; }

  // --- RLC queues (bytes) -------------------------------------------------
  void EnqueueDownlink(std::uint64_t bytes) { dl_queue_bytes_ += bytes; }
  void EnqueueUplink(std::uint64_t bytes) { ul_queue_bytes_ += bytes; }
  std::uint64_t dl_queue_bytes() const { return dl_queue_bytes_; }
  std::uint64_t ul_queue_bytes() const { return ul_queue_bytes_; }
  void DrainDownlink(std::uint64_t bytes);
  void DrainUplink(std::uint64_t bytes);

  // --- CQI ----------------------------------------------------------------
  /// Store a decoded mode 3-0 report (wideband + per-subchannel). Sub-band
  /// values are CQI indices, 0..kMaxCqi (the ranking buckets by them). A
  /// report equal to the stored one returns at once; any other rebuilds
  /// cqi_efficiency() and cqi_order(), so the per-subframe readers
  /// (scheduler, AggregateCqi) only read them.
  void UpdateCqi(int wideband, const std::vector<int>& subband);
  int wideband_cqi() const { return wideband_cqi_; }
  int SubbandCqi(int subchannel) const { return subband_cqi_[static_cast<std::size_t>(subchannel)]; }
  const std::vector<int>& subband_cqi() const { return subband_cqi_; }
  bool has_cqi() const { return has_cqi_; }
  /// The CQI the scheduler plans with: the reported sub-band CQI, or
  /// kMinCqi (the most robust MCS) before the first report.
  int EffectiveSubbandCqi(int subchannel) const {
    return has_cqi_ ? SubbandCqi(subchannel) : kMinCqi;
  }
  /// CqiEfficiency(EffectiveSubbandCqi(s)) for every subchannel s.
  const std::vector<double>& cqi_efficiency() const { return cqi_efficiency_; }
  /// Every subchannel by descending EffectiveSubbandCqi, ties in ascending
  /// index (what std::stable_sort by CQI gives).
  const std::vector<int>& cqi_order() const { return cqi_order_; }

  // --- Proportional fair --------------------------------------------------
  /// EWMA of the served rate, bits per subframe.
  double average_rate() const { return average_rate_; }
  /// Update the EWMA with the bits served this subframe (0 if unserved).
  void UpdatePfAverage(double bits_served, double window_subframes);

  /// Carry state across a handover: pending queue bytes (data forwarding
  /// over the backhaul) and cumulative statistics move to the new cell's
  /// context; CQI and HARQ state do not (new radio link).
  void ImportOnHandover(const UeContext& old);

  // --- HARQ ---------------------------------------------------------------
  HarqState& harq_dl() { return harq_dl_; }
  HarqState& harq_ul() { return harq_ul_; }
  const HarqState& harq_dl() const { return harq_dl_; }
  const HarqState& harq_ul() const { return harq_ul_; }

  // --- Statistics ---------------------------------------------------------
  std::uint64_t dl_delivered_bits = 0;
  std::uint64_t ul_delivered_bits = 0;
  std::uint64_t dl_lost_blocks = 0;
  std::uint64_t dl_total_blocks = 0;
  std::uint64_t dl_harq_retx_blocks = 0;
  /// Delivered blocks by MCS and grant width, per direction (Fig. 1(b)/(c)).
  DeliveryCounts dl_blocks;
  DeliveryCounts ul_blocks;

 private:
  UeId id_;
  std::uint64_t dl_queue_bytes_ = 0;
  std::uint64_t ul_queue_bytes_ = 0;
  bool has_cqi_ = false;
  int wideband_cqi_ = 0;
  std::vector<int> subband_cqi_;
  std::vector<double> cqi_efficiency_;
  std::vector<int> cqi_order_;
  double average_rate_ = 1.0;  // avoid div-by-zero in PF metric
  HarqState harq_dl_;
  HarqState harq_ul_;
};

/// Aggregate CQI for a multi-subchannel allocation: the CQI whose spectral
/// efficiency best matches the mean efficiency of the allocated
/// subchannels (one MCS covers the whole transport block in LTE).
/// `efficiency` is per subchannel, as UeContext::cqi_efficiency().
int AggregateCqi(const std::vector<double>& efficiency, std::span<const int> subchannels);

}  // namespace cellfi::lte
