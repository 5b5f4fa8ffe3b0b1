// Stateless, hash-derived shadowing and small-scale fading.
//
// Both processes are deterministic functions of (seed, link, ...) so that
// every component observing the same link at the same time sees the same
// channel, without the simulator having to store per-link state.
//
//  * Shadowing: log-normal, constant per link (static nodes).
//  * Fading: block Rayleigh, i.i.d. per (link, subchannel, coherence block).
#pragma once

#include <cstdint>

#include "cellfi/common/time.h"

namespace cellfi {

/// SplitMix64-based hash of an arbitrary number of 64-bit words.
std::uint64_t HashWords(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0,
                        std::uint64_t d = 0);

/// Map a hash to a uniform double in (0, 1).
double HashToUnitInterval(std::uint64_t h);

/// Map a hash to a standard normal sample (Box-Muller on two derived
/// uniforms).
double HashToStandardNormal(std::uint64_t h);

/// Log-normal shadowing, symmetric in (a, b) — the channel is reciprocal.
class ShadowingField {
 public:
  /// `sigma_db` is the log-normal standard deviation (typ. 6-8 dB outdoor).
  ShadowingField(std::uint64_t seed, double sigma_db);

  /// Shadowing in dB for the link between node ids `a` and `b`.
  double ShadowDb(std::uint32_t a, std::uint32_t b) const;

  double sigma_db() const { return sigma_db_; }

 private:
  std::uint64_t seed_;
  double sigma_db_;
};

/// Block fading: the power gain is constant within a coherence block and
/// independent across blocks and subchannels. With `rician_k` = 0 the
/// amplitude is Rayleigh (power gain Exp(1)); a positive K adds a fixed
/// line-of-sight component (typical for the static outdoor nodes of a
/// CellFi deployment), shrinking the fade depth while keeping unit mean
/// power.
class FadingProcess {
 public:
  FadingProcess(std::uint64_t seed, SimTime coherence_time = 50 * kMillisecond,
                double rician_k = 0.0);

  /// Linear power gain (mean 1.0) for (a,b) link, subchannel, time.
  double PowerGain(std::uint32_t a, std::uint32_t b, std::uint32_t subchannel,
                   SimTime now) const;

  /// Same in dB.
  double GainDb(std::uint32_t a, std::uint32_t b, std::uint32_t subchannel,
                SimTime now) const;

  /// A PowerGain value in dB, floored at -120 dB (GainDb's conversion).
  static double PowerGainToDb(double power_gain);

  /// Index of the coherence block containing `now`; PowerGain is constant
  /// for a given link and subchannel while it stays the same.
  std::uint64_t BlockIndex(SimTime now) const {
    return static_cast<std::uint64_t>(now / coherence_time_);
  }

  SimTime coherence_time() const { return coherence_time_; }
  double rician_k() const { return rician_k_; }

 private:
  std::uint64_t seed_;
  SimTime coherence_time_;
  double rician_k_;
};

}  // namespace cellfi
