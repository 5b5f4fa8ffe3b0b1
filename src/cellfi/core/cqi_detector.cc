#include "cellfi/core/cqi_detector.h"

#include <algorithm>
#include <stdexcept>
#include <string>

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
      bands_(static_cast<std::size_t>(num_subchannels)) {}

void CqiInterferenceDetector::AddReport(const std::vector<int>& subband_cqi) {
  const std::size_t n = std::min(subband_cqi.size(), bands_.size());
  for (std::size_t s = 0; s < n; ++s) {
    Band& band = bands_[s];
    const std::int64_t index = band.samples++;
    auto& candidates = band.max_candidates;
    while (!candidates.empty() && candidates.back().value <= subband_cqi[s]) {
      candidates.pop_back();
    }
    candidates.push_back({index, subband_cqi[s]});
    if (candidates.front().index <= index - config_.max_window) candidates.pop_front();
    const double threshold = config_.ratio * static_cast<double>(candidates.front().value);
    if (static_cast<double>(subband_cqi[s]) < threshold) {
      ++band.low_streak;
    } else {
      band.low_streak = 0;
    }
    band.smoothed = band.smoothed < 0.0
                        ? static_cast<double>(subband_cqi[s])
                        : (1.0 - config_.smoothing) * band.smoothed +
                              config_.smoothing * static_cast<double>(subband_cqi[s]);
  }

  if (config_.enable_spectral_rule) {
    double best = 0.0;
    for (std::size_t s = 0; s < n; ++s) best = std::max(best, bands_[s].smoothed);
    for (std::size_t s = 0; s < n; ++s) {
      Band& band = bands_[s];
      if (band.smoothed < config_.ratio * best) {
        ++band.spectral_streak;
      } else {
        band.spectral_streak = 0;
      }
    }
  }
}

bool CqiInterferenceDetector::Detected(int s) const {
  const Band& band = bands_[static_cast<std::size_t>(s)];
  return band.low_streak >= config_.consecutive ||
         band.spectral_streak >= config_.consecutive;
}

int CqiInterferenceDetector::MaxCqi(int s) const {
  const Band& band = bands_[static_cast<std::size_t>(s)];
  return band.max_candidates.empty() ? 0 : band.max_candidates.front().value;
}

}  // namespace cellfi::core
