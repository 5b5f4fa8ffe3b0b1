#include "cellfi/lte/ue_context.h"

#include <algorithm>
#include <cassert>

namespace cellfi::lte {

UeContext::UeContext(UeId id, int num_subchannels)
    : dl_blocks(num_subchannels),
      ul_blocks(num_subchannels),
      id_(id),
      subband_cqi_(static_cast<std::size_t>(num_subchannels), 0) {}

void UeContext::DrainDownlink(std::uint64_t bytes) {
  dl_queue_bytes_ -= std::min(dl_queue_bytes_, bytes);
}

void UeContext::DrainUplink(std::uint64_t bytes) {
  ul_queue_bytes_ -= std::min(ul_queue_bytes_, bytes);
}

void UeContext::ImportOnHandover(const UeContext& old) {
  dl_queue_bytes_ = old.dl_queue_bytes_;
  ul_queue_bytes_ = old.ul_queue_bytes_;
  dl_delivered_bits = old.dl_delivered_bits;
  ul_delivered_bits = old.ul_delivered_bits;
  dl_lost_blocks = old.dl_lost_blocks;
  dl_total_blocks = old.dl_total_blocks;
  dl_harq_retx_blocks = old.dl_harq_retx_blocks;
  dl_blocks = old.dl_blocks;
  ul_blocks = old.ul_blocks;
}

void UeContext::UpdateCqi(int wideband, const std::vector<int>& subband) {
  has_cqi_ = true;
  wideband_cqi_ = wideband;
  const std::size_t n = std::min(subband.size(), subband_cqi_.size());
  std::copy_n(subband.begin(), n, subband_cqi_.begin());
}

void UeContext::UpdatePfAverage(double bits_served, double window_subframes) {
  assert(window_subframes >= 1.0);
  const double alpha = 1.0 / window_subframes;
  average_rate_ = (1.0 - alpha) * average_rate_ + alpha * bits_served;
  average_rate_ = std::max(average_rate_, 1e-3);
}

int AggregateCqi(const std::vector<int>& subband_cqi, std::span<const int> subchannels) {
  if (subchannels.empty()) return 0;
  double mean_eff = 0.0;
  for (int s : subchannels) {
    mean_eff += CqiEfficiency(subband_cqi[static_cast<std::size_t>(s)]);
  }
  mean_eff /= static_cast<double>(subchannels.size());
  if (mean_eff <= 0.0) return 0;
  // Round to the CQI whose efficiency is nearest the mean. Flooring here
  // would stack conservatism on top of the subband quantization and make
  // first-transmission errors (and therefore HARQ) vanish, which real
  // LTE link adaptation does not do.
  int best = 0;
  double best_gap = 1e9;
  for (int c = kMinCqi; c <= kMaxCqi; ++c) {
    const double gap = std::abs(CqiEfficiency(c) - mean_eff);
    if (gap < best_gap) {
      best_gap = gap;
      best = c;
    }
  }
  return best;
}

}  // namespace cellfi::lte
