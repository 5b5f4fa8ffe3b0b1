#include "cellfi/core/cqi_detector.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace cellfi::core {
namespace {

void Require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("CqiInterferenceDetector: ") + what);
}

// NaN fails every comparison, so it is rejected too.
const CqiDetectorConfig& Validated(const CqiDetectorConfig& config) {
  Require(config.max_window >= 1, "max_window must be >= 1");
  Require(config.consecutive >= 1, "consecutive must be >= 1");
  Require(config.ratio > 0.0, "ratio must be > 0");
  Require(config.smoothing > 0.0 && config.smoothing <= 1.0, "smoothing must be in (0, 1]");
  return config;
}

}  // namespace

CqiInterferenceDetector::CqiInterferenceDetector(int num_subchannels,
                                                 CqiDetectorConfig config)
    : config_(Validated(config)),
      bands_(static_cast<std::size_t>(num_subchannels)),
      ring_(bands_.size() * cap_),
      smoothed_(bands_.size(), -1.0),
      spectral_streak_(bands_.size(), 0) {}

void CqiInterferenceDetector::Grow() {
  const std::uint32_t new_cap = cap_ * 2;
  std::vector<Candidate> grown(bands_.size() * new_cap);
  for (std::size_t s = 0; s < bands_.size(); ++s) {
    Band& band = bands_[s];
    for (std::uint32_t i = 0; i < band.count; ++i) {
      grown[s * new_cap + i] = ring_[s * cap_ + ((band.head + i) & (cap_ - 1))];
    }
    band.head = 0;
  }
  ring_ = std::move(grown);
  cap_ = new_cap;
}

void CqiInterferenceDetector::AddReport(const std::vector<int>& subband_cqi) {
  const std::size_t n = std::min(subband_cqi.size(), bands_.size());
  // Locals, so the stores below cannot force reloads of the config.
  const auto window = static_cast<std::uint32_t>(config_.max_window);
  const double ratio = config_.ratio;
  const double smoothing = config_.smoothing;
  std::uint32_t mask = cap_ - 1;
  for (std::size_t s = 0; s < n; ++s) {
    Band& band = bands_[s];
    const int value = subband_cqi[s];
    const std::uint32_t index = band.samples++;
    std::uint32_t head = band.head;
    std::uint32_t count = band.count;
    Candidate* ring = ring_.data() + s * (mask + 1);
    if (count > 0 && ring[(head + count - 1) & mask].value == value) {
      // The repeated-report case: nothing to pop, the back moves forward.
      ring[(head + count - 1) & mask].index = index;
    } else {
      while (count > 0 && ring[(head + count - 1) & mask].value <= value) --count;
      if (count == mask + 1) {
        band.count = count;
        Grow();
        head = 0;
        mask = cap_ - 1;
        ring = ring_.data() + s * cap_;
      }
      ring[(head + count) & mask] = {index, value};
      ++count;
    }
    if (index - ring[head].index >= window) {
      head = (head + 1) & mask;
      --count;
    }
    band.head = head;
    band.count = count;
    if (static_cast<double>(value) < ratio * static_cast<double>(ring[head].value)) {
      ++band.low_streak;
    } else {
      band.low_streak = 0;
    }
  }

  // The EWMA in its own pass over the contiguous array.
  for (std::size_t s = 0; s < n; ++s) {
    const double value = static_cast<double>(subband_cqi[s]);
    smoothed_[s] = smoothed_[s] < 0.0 ? value
                                      : (1.0 - smoothing) * smoothed_[s] + smoothing * value;
  }

  if (config_.enable_spectral_rule) {
    double best = 0.0;
    for (std::size_t s = 0; s < n; ++s) best = std::max(best, smoothed_[s]);
    const double bar = ratio * best;
    for (std::size_t s = 0; s < n; ++s) {
      spectral_streak_[s] = smoothed_[s] < bar ? spectral_streak_[s] + 1 : 0;
    }
  }
}

bool CqiInterferenceDetector::Detected(int s) const {
  const Band& band = bands_[static_cast<std::size_t>(s)];
  return band.low_streak >= config_.consecutive ||
         spectral_streak_[static_cast<std::size_t>(s)] >= config_.consecutive;
}

int CqiInterferenceDetector::MaxCqi(int s) const {
  const Band& band = bands_[static_cast<std::size_t>(s)];
  return band.count == 0 ? 0 : ring_[static_cast<std::size_t>(s) * cap_ + band.head].value;
}

}  // namespace cellfi::core
