// Random number generation for simulations.
//
// Every stochastic component takes a `Rng&` so runs are reproducible from a
// single seed and independent streams can be derived per component.
#pragma once

#include <cstdint>
#include <random>

namespace cellfi {

/// SplitMix64 finalizer: the stateless 64-bit mixing step behind every
/// counter-based hash in the library (HashWords, SweepSeed, fault-plan
/// transport seeds). Its constants fix those values; never change them.
// cellfi-purity: allow(draws_rng) — stateless mixing step: a pure function
// of its argument with no stream state, the DESIGN.md §13 sanctioned
// alternative to Rng inside parallel phases.
inline std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Seedable random source with the distributions used across the library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  /// Derive an independent child stream (for per-node/per-link RNGs).
  Rng Fork() { return Rng(engine_() ^ 0xD1B54A32D192ED03ull); }

  /// Uniform real in [0, 1).
  double Uniform() { return uniform_(engine_); }

  /// Uniform real in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Standard normal sample.
  double Normal() { return normal_(engine_); }

  /// Normal with given mean / stddev.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Exponential with the given mean (not rate).
  double Exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Log-normal parameterized by the underlying normal's mu/sigma.
  double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Pareto with shape `alpha` and scale `xm` (mean exists for alpha > 1).
  double Pareto(double alpha, double xm) {
    return xm / std::pow(1.0 - Uniform(), 1.0 / alpha);
  }

  /// Bernoulli trial with success probability `p`.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Geometrically distributed count of failures before first success.
  std::int64_t Geometric(double p) {
    return std::geometric_distribution<std::int64_t>(p)(engine_);
  }

  /// Access the underlying engine (for std::shuffle etc.).
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace cellfi
