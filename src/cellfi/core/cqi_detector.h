// CQI-based interference detector (paper Section 6.3.2).
//
// Two complementary rules, both requiring 10 consecutive low reports:
//
//  * Temporal: the AP tracks, per client and sub-band, the maximum CQI
//    observed within a sliding window as the interference-free estimate,
//    and flags samples below 60 % of that maximum. This is the paper's
//    measured rule; it catches an interferer that *arrives* on a
//    previously clean sub-band.
//  * Spectral: a sub-band whose smoothed CQI sits below 60 % of the
//    client's best smoothed sub-band is flagged. Sub-band reports make the
//    across-frequency contrast directly observable, and this closes the
//    cold-start case where a sub-band has been interfered for the entire
//    window (the temporal max never saw it clean).
//
// The paper measured <2 % false positives and ~80 % detection probability
// on real hardware; large-scale runs inject those imperfections on top
// (see CellfiControllerConfig).
#pragma once

#include <cstdint>
#include <vector>

namespace cellfi::core {

struct CqiDetectorConfig {
  double ratio = 0.6;     // "below 60 % of the maximum"
  int consecutive = 10;   // consecutive low samples to trigger
  int max_window = 500;   // samples kept for the running max (1 s at 2 ms)
  double smoothing = 0.1; // EWMA weight for the spectral rule
  bool enable_spectral_rule = true;
};

/// Detector state for one client (all sub-bands).
class CqiInterferenceDetector {
 public:
  /// Throws std::invalid_argument unless max_window >= 1, consecutive >= 1,
  /// ratio > 0 and smoothing is in (0, 1].
  CqiInterferenceDetector(int num_subchannels, CqiDetectorConfig config = {});

  /// Feed one decoded report (per-subchannel CQI).
  void AddReport(const std::vector<int>& subband_cqi);

  /// True if subchannel `s` currently triggers the interference rule.
  bool Detected(int s) const;

  /// Interference-free CQI estimate (window max) for subchannel `s`.
  int MaxCqi(int s) const;

  /// Number of consecutive low samples on `s` (temporal rule).
  int LowStreak(int s) const { return bands_[static_cast<std::size_t>(s)].low_streak; }

  /// Smoothed CQI on subchannel `s` (spectral rule input).
  double SmoothedCqi(int s) const { return smoothed_[static_cast<std::size_t>(s)]; }

  int num_subchannels() const { return static_cast<int>(bands_.size()); }

 private:
  /// One candidate for the window max: the band's `index`-th sample.
  struct Candidate {
    std::uint32_t index;
    int value;
  };
  /// Per band, the candidates form a monotonic deque over the last
  /// max_window samples: values strictly decrease from front to back, so
  /// the front is the exact window max. A sample is dropped once a later
  /// one is at least as large (it can never be the max again) or once it
  /// leaves the window. With CQI in 0..15 a band never holds more than 16.
  /// A sample equal to the back candidate (the previous sample, in a
  /// repeated report) only moves that candidate's index forward: popping
  /// it and pushing the sample would leave the same values.
  ///
  /// The deque lives in `ring_`: band `s` owns slots [s*cap_, (s+1)*cap_)
  /// and uses them as a ring from `head` for `count` entries. `cap_` is a
  /// power of two; a push into a full band doubles it for every band
  /// (Grow), so any int stream and any window stay exact.
  ///
  /// Sample indices are 32-bit and wrap. The expiry test
  /// `index - front.index >= max_window` runs in unsigned arithmetic and
  /// is still exact: the front is never more than max_window (<= INT_MAX)
  /// samples older than the new sample, so the difference mod 2^32 is the
  /// true difference.
  struct Band {
    std::uint32_t head = 0;     // ring slot of the front candidate
    std::uint32_t count = 0;    // candidates held
    std::uint32_t samples = 0;  // reports seen on this band (mod 2^32)
    int low_streak = 0;         // temporal rule
  };

  /// Double `cap_`, moving each band's candidates to the front of its
  /// new, larger slot range.
  void Grow();

  CqiDetectorConfig config_;
  std::vector<Band> bands_;
  std::uint32_t cap_ = 4;        // ring slots per band (power of two)
  std::vector<Candidate> ring_;  // bands_.size() * cap_ candidates
  /// Spectral-rule state, one contiguous array per field so the per-report
  /// best-band scan and streak update run over plain arrays.
  std::vector<double> smoothed_;      // EWMA per band; -1 = no samples yet
  std::vector<int> spectral_streak_;  // per band
};

}  // namespace cellfi::core
