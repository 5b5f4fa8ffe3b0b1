#include "cellfi/lte/ue_context.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>

namespace cellfi::lte {

namespace {
/// CqiEfficiency of every CQI 0..kMaxCqi, copied once so the per-block
/// readers index an array instead of calling across translation units.
const std::array<double, kMaxCqi + 1> kCqiEfficiency = [] {
  std::array<double, kMaxCqi + 1> table{};
  for (int c = 0; c <= kMaxCqi; ++c) table[static_cast<std::size_t>(c)] = CqiEfficiency(c);
  return table;
}();
}  // namespace

UeContext::UeContext(UeId id, int num_subchannels)
    : dl_blocks(num_subchannels),
      ul_blocks(num_subchannels),
      id_(id),
      subband_cqi_(static_cast<std::size_t>(num_subchannels), 0),
      cqi_efficiency_(static_cast<std::size_t>(num_subchannels), CqiEfficiency(kMinCqi)),
      cqi_order_(static_cast<std::size_t>(num_subchannels)) {
  // Before the first report every subchannel plans at kMinCqi: one bucket,
  // ascending index.
  std::iota(cqi_order_.begin(), cqi_order_.end(), 0);
}

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
  const std::size_t n = std::min(subband.size(), subband_cqi_.size());
  // Reports repeat far more often than they change (the SINRs hold within
  // a fading block): an equal report leaves every derived value as is.
  if (has_cqi_ && wideband == wideband_cqi_ &&
      std::equal(subband.begin(), subband.begin() + static_cast<std::ptrdiff_t>(n),
                 subband_cqi_.begin())) {
    return;
  }
  has_cqi_ = true;
  wideband_cqi_ = wideband;
  std::copy_n(subband.begin(), n, subband_cqi_.begin());

  // Counting sort: bucket each subchannel by its CQI, lay the buckets out
  // from CQI 15 down to 0, and fill each bucket in ascending subchannel
  // order. That is exactly std::stable_sort by `ca > cb`, without its
  // merge buffer.
  std::array<int, kMaxCqi + 1> next{};
  for (std::size_t s = 0; s < subband_cqi_.size(); ++s) {
    const int cqi = subband_cqi_[s];
    assert(cqi >= 0 && cqi <= kMaxCqi);
    cqi_efficiency_[s] = kCqiEfficiency[static_cast<std::size_t>(cqi)];
    ++next[static_cast<std::size_t>(cqi)];
  }
  int pos = 0;
  for (int c = kMaxCqi; c >= 0; --c) {
    const int count = next[static_cast<std::size_t>(c)];
    next[static_cast<std::size_t>(c)] = pos;
    pos += count;
  }
  for (std::size_t s = 0; s < subband_cqi_.size(); ++s) {
    cqi_order_[static_cast<std::size_t>(next[static_cast<std::size_t>(subband_cqi_[s])]++)] =
        static_cast<int>(s);
  }
}

void UeContext::UpdatePfAverage(double bits_served, double window_subframes) {
  assert(window_subframes >= 1.0);
  const double alpha = 1.0 / window_subframes;
  average_rate_ = (1.0 - alpha) * average_rate_ + alpha * bits_served;
  average_rate_ = std::max(average_rate_, 1e-3);
}

int AggregateCqi(const std::vector<double>& efficiency, std::span<const int> subchannels) {
  if (subchannels.empty()) return 0;
  double mean_eff = 0.0;
  for (int s : subchannels) mean_eff += efficiency[static_cast<std::size_t>(s)];
  mean_eff /= static_cast<double>(subchannels.size());
  if (mean_eff <= 0.0) return 0;
  // Round to the CQI whose efficiency is nearest the mean. Flooring here
  // would stack conservatism on top of the subband quantization and make
  // first-transmission errors (and therefore HARQ) vanish, which real
  // LTE link adaptation does not do.
  int best = 0;
  double best_gap = 1e9;
  for (int c = kMinCqi; c <= kMaxCqi; ++c) {
    const double gap = std::abs(kCqiEfficiency[static_cast<std::size_t>(c)] - mean_eff);
    if (gap < best_gap) {
      best_gap = gap;
      best = c;
    }
  }
  return best;
}

}  // namespace cellfi::lte
