// SIMD parity suite (DESIGN.md §17, `ctest -L simd`, check.sh --simd).
//
// Pins the three contracts of the kernel layer:
//   1. dispatch-vs-scalar BIT identity for every simd:: kernel, including
//      non-multiple-of-lane tails;
//   2. the twiddle-table FFT against the legacy w*=wlen recurrence within
//      a max-ulp bound (the one intentional numeric change of §17);
//   3. RadioEnvironment::SinrDb's blocked denominator order against the
//      old serial left-to-right sum within 1e-12 dB (the engine-vs-per-link
//      bit identity lives in lte_interference_engine_test);
// plus PrachDetectorBank-vs-PrachDetector bit identity and a composite
// digest for the cross-build (CELLFI_SIMD=OFF vs ON) comparison driven by
// tools/check.sh --simd via CELLFI_SIMD_DIGEST_OUT/_EXPECT.
#include "cellfi/common/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cellfi/common/fft.h"
#include "cellfi/common/rng.h"
#include "cellfi/phy/prach.h"
#include "cellfi/radio/environment.h"
#include "cellfi/radio/pathloss.h"

namespace cellfi {
namespace {

// Exact bit equality (stricter than EXPECT_DOUBLE_EQ: distinguishes
// -0.0 from +0.0), which is what the §17 contract promises.
bool BitEqual(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

std::vector<double> RandomDoubles(std::size_t n, std::uint64_t seed,
                                  double lo = -1.0, double hi = 1.0) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.Uniform(lo, hi);
  return v;
}

// RAII around simd::ForceScalar for the A/B comparisons.
struct ScopedForceScalar {
  explicit ScopedForceScalar(bool force) : prev(simd::ForceScalar(force)) {}
  ~ScopedForceScalar() { simd::ForceScalar(prev); }
  bool prev;
};

// Sizes straddling every vector width in play (AVX2: 4 doubles per
// butterfly step; SSE2/NEON: 2) including pure-tail and tail-carrying
// cases.
const std::size_t kSizes[] = {0, 1, 3, 5, 8, 13, 64, 100, 839, 1024};

TEST(SimdKernelsTest, ButterflyBlockDispatchMatchesScalarBitExact) {
  for (std::size_t half : kSizes) {
    if (half == 0) continue;
    auto re_a = RandomDoubles(2 * half, 200 + half);
    auto im_a = RandomDoubles(2 * half, 300 + half);
    auto re_b = re_a;
    auto im_b = im_a;
    // Real unit-circle twiddles, as the FFT plans produce.
    std::vector<double> tw_re(half), tw_im(half);
    for (std::size_t k = 0; k < half; ++k) {
      const double ang = -M_PI * static_cast<double>(k) / static_cast<double>(half);
      tw_re[k] = std::cos(ang);
      tw_im[k] = std::sin(ang);
    }
    simd::ButterflyBlockScalar(re_a.data(), im_a.data(), tw_re.data(),
                               tw_im.data(), half);
    simd::ButterflyBlock(re_b.data(), im_b.data(), tw_re.data(), tw_im.data(),
                         half);
    for (std::size_t k = 0; k < 2 * half; ++k) {
      ASSERT_TRUE(BitEqual(re_a[k], re_b[k])) << "half=" << half << " k=" << k;
      ASSERT_TRUE(BitEqual(im_a[k], im_b[k])) << "half=" << half << " k=" << k;
    }
  }
}

TEST(SimdKernelsTest, CMulSplitDispatchMatchesScalarBitExact) {
  for (std::size_t n : kSizes) {
    auto ar = RandomDoubles(n, 400 + n);
    auto ai = RandomDoubles(n, 500 + n);
    const auto br = RandomDoubles(n, 600 + n);
    const auto bi = RandomDoubles(n, 700 + n);
    auto ar2 = ar;
    auto ai2 = ai;
    simd::CMulSplitScalar(ar.data(), ai.data(), br.data(), bi.data(), n);
    simd::CMulSplit(ar2.data(), ai2.data(), br.data(), bi.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(BitEqual(ar[i], ar2[i])) << "n=" << n << " i=" << i;
      ASSERT_TRUE(BitEqual(ai[i], ai2[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdKernelsTest, ConjMulInterleavedDispatchMatchesScalarBitExact) {
  for (std::size_t n : kSizes) {
    const auto a = RandomDoubles(2 * n, 800 + n);
    const auto b = RandomDoubles(2 * n, 900 + n);
    std::vector<double> ref(2 * n), out(2 * n);
    simd::ConjMulInterleavedScalar(ref.data(), a.data(), b.data(), n);
    simd::ConjMulInterleaved(out.data(), a.data(), b.data(), n);
    for (std::size_t i = 0; i < 2 * n; ++i) {
      ASSERT_TRUE(BitEqual(ref[i], out[i])) << "n=" << n << " i=" << i;
    }
    // The PRACH correlator aliases dst == a; the contract allows it.
    auto aliased = a;
    simd::ConjMulInterleaved(aliased.data(), aliased.data(), b.data(), n);
    for (std::size_t i = 0; i < 2 * n; ++i) {
      ASSERT_TRUE(BitEqual(ref[i], aliased[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdKernelsTest, ScaleDispatchMatchesScalarBitExact) {
  for (std::size_t n : kSizes) {
    auto a = RandomDoubles(n, 1000 + n);
    auto b = a;
    const double s = 1.0 / 839.0;
    simd::ScaleScalar(a.data(), n, s);
    simd::Scale(b.data(), n, s);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(BitEqual(a[i], b[i])) << "n=" << n << " i=" << i;
    }
  }
}

// --- FFT: twiddle tables vs the legacy w *= wlen recurrence ---------------

// The pre-§17 radix-2 implementation, verbatim: one twiddle per stage,
// advanced by repeated complex multiplication. Kept here as the numeric
// yardstick the rewrite is measured against.
void LegacyFftRecurrence(Complex* a, std::size_t n, bool inverse) {
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = 2.0 * M_PI / static_cast<double>(len) * (inverse ? 1 : -1);
    const Complex wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = a[i + k];
        const Complex v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) a[i] *= inv_n;
  }
}

TEST(SimdFftTest, TwiddleTableMatchesLegacyRecurrenceWithinUlps) {
  // Error budget in ulps of the output scale (eps * max|X|). The table
  // version evaluates every twiddle directly, so the difference is
  // dominated by the recurrence's accumulated drift — empirically a few
  // hundred scale-ulps at n=4096; 4096 leaves headroom without letting a
  // real regression (wrong twiddle, wrong butterfly) through, as any such
  // bug produces O(|X|) errors, i.e. ~1e16 scale-ulps.
  constexpr double kMaxScaleUlps = 4096.0;
  for (std::size_t n : {256u, 1024u, 4096u}) {
    Rng rng(42 + n);
    std::vector<Complex> x(n);
    for (auto& v : x) v = Complex(rng.Normal(), rng.Normal());
    for (bool inverse : {false, true}) {
      auto legacy = x;
      LegacyFftRecurrence(legacy.data(), n, inverse);
      auto table = x;
      if (inverse) {
        Ifft(table);
      } else {
        Fft(table);
      }
      double max_abs = 0.0;
      for (const auto& v : legacy) max_abs = std::max(max_abs, std::abs(v));
      const double scale_ulp =
          std::numeric_limits<double>::epsilon() * max_abs;
      double worst = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        worst = std::max(worst, std::abs(table[i] - legacy[i]) / scale_ulp);
      }
      EXPECT_LE(worst, kMaxScaleUlps) << "n=" << n << " inverse=" << inverse;
    }
  }
}

// --- Denominator accumulation: blocked order vs old serial order ----------

TEST(SimdSinrTest, BlockedDenominatorWithinEpsilonOfSerialDb) {
  // The §17 reassociation (serial left-to-right -> the inline 8-lane
  // lanes[m & 7] + ReduceLanes8 order of RadioEnvironment::SinrDb) is the
  // one place the SINR denominator's bits may move. The contract bounds
  // the movement at 1e-12 dB for realistic term populations: noise floor
  // plus up to ~1000 interferer powers spanning many decades.
  //
  // 64 interferers placed 50 m .. 10 km away, drawn into lists of up to
  // 1029 terms with power shares spanning four decades on top.
  static HataUrbanPathLoss pathloss;
  RadioEnvironmentConfig cfg;
  cfg.enable_fading = false;
  RadioEnvironment env(pathloss, cfg);
  Rng rng(9000);
  const RadioNodeId rx = env.AddNode({.position = {0, 0}});
  const RadioNodeId tx = env.AddNode({.position = {150, 0}, .tx_power_dbm = 30});
  std::vector<RadioNodeId> nodes;
  for (int i = 0; i < 64; ++i) {
    const double r = std::pow(10.0, rng.Uniform(1.7, 4.0));
    const double theta = rng.Uniform(0.0, 2.0 * M_PI);
    nodes.push_back(env.AddNode(
        {.position = {r * std::cos(theta), r * std::sin(theta)}, .tx_power_dbm = 30}));
  }
  constexpr double kBandwidthHz = 360e3;
  for (std::size_t n : {3u, 17u, 256u, 1024u, 1029u}) {
    std::vector<ActiveTransmitter> interferers;
    for (std::size_t i = 0; i < n; ++i) {
      const auto node = nodes[static_cast<std::size_t>(rng.UniformInt(0, 63))];
      interferers.push_back({node, std::pow(10.0, rng.Uniform(-4.0, 0.0))});
    }
    double serial = env.NoiseMw(rx, kBandwidthHz);
    for (const ActiveTransmitter& it : interferers) {
      serial += env.MeanRxPowerMw(it.node, rx) * it.power_scale;
    }
    const double serial_db = 10.0 * std::log10(env.MeanRxPowerMw(tx, rx) / serial);
    const double blocked_db = env.SinrDb(tx, rx, 0, 0, interferers, kBandwidthHz);
    EXPECT_NEAR(blocked_db, serial_db, 1e-12) << "n=" << n;
  }
}

// --- PRACH bank vs per-root detectors -------------------------------------

std::vector<Complex> AddSignals(const std::vector<Complex>& a,
                                const std::vector<Complex>& b) {
  std::vector<Complex> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

TEST(SimdPrachTest, BankMatchesPerRootDetectorsBitExact) {
  PrachConfig cfg;
  const std::vector<int> roots = {17, 29, 41};
  PrachDetectorBank bank(cfg, roots);
  std::vector<PrachDetector> detectors;
  for (int r : roots) {
    PrachConfig c = cfg;
    c.root = r;
    detectors.emplace_back(c);
  }

  // AWGN fixtures: single preamble on the first root, superimposed
  // preambles on two roots, and a noise-only occasion.
  Rng rng(33);
  std::vector<std::vector<Complex>> fixtures;
  {
    PrachConfig c17 = cfg;
    c17.root = 17;
    fixtures.push_back(PassThroughAwgn(GeneratePreamble(c17, 5), 7, -8.0, rng));
    PrachConfig c29 = cfg;
    c29.root = 29;
    fixtures.push_back(
        AddSignals(PassThroughAwgn(GeneratePreamble(c17, 3), 2, -6.0, rng),
                   PassThroughAwgn(GeneratePreamble(c29, 40), 11, -6.0, rng)));
    fixtures.push_back(NoiseOnly(cfg.sequence_length, rng));
  }

  bool any_detected = false;
  for (const auto& rx : fixtures) {
    const auto banked = bank.DetectAll(rx);
    ASSERT_EQ(banked.size(), roots.size());
    for (std::size_t k = 0; k < roots.size(); ++k) {
      EXPECT_EQ(banked[k].root, roots[k]);
      const auto individual = detectors[k].DetectAll(rx);
      ASSERT_EQ(banked[k].detections.size(), individual.size()) << "k=" << k;
      for (std::size_t d = 0; d < individual.size(); ++d) {
        EXPECT_EQ(banked[k].detections[d].detected, individual[d].detected);
        EXPECT_EQ(banked[k].detections[d].shift_estimate,
                  individual[d].shift_estimate);
        EXPECT_EQ(banked[k].detections[d].preamble_estimate,
                  individual[d].preamble_estimate);
        EXPECT_TRUE(BitEqual(banked[k].detections[d].peak_to_average,
                             individual[d].peak_to_average));
        any_detected = any_detected || individual[d].detected;
      }
    }
  }
  // The fixtures are not all noise: the comparison exercised real peaks.
  EXPECT_TRUE(any_detected);
}

// --- Cross-build digest ---------------------------------------------------

void DigestDouble(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;  // FNV-1a
  }
}

// One number summarizing the bits of every kernel's output over fixed
// inputs, plus a full FFT, a Bluestein DFT and a PRACH detection pass.
std::uint64_t KernelDigest() {
  std::uint64_t h = 0xcbf29ce484222325ull;
  {
    Rng rng(71);
    std::vector<Complex> x(1024);
    for (auto& v : x) v = Complex(rng.Normal(), rng.Normal());
    Fft(x);
    for (const auto& v : x) {
      DigestDouble(h, v.real());
      DigestDouble(h, v.imag());
    }
  }
  {
    Rng rng(72);
    std::vector<Complex> x(839);
    for (auto& v : x) v = Complex(rng.Normal(), rng.Normal());
    const auto y = Dft(x);
    for (const auto& v : y) {
      DigestDouble(h, v.real());
      DigestDouble(h, v.imag());
    }
  }
  {
    PrachConfig cfg;
    Rng rng(73);
    PrachDetector detector(cfg);
    const auto rx = PassThroughAwgn(GeneratePreamble(cfg, 17), 5, -10.0, rng);
    for (const auto& d : detector.DetectAll(rx)) {
      DigestDouble(h, d.peak_to_average);
      DigestDouble(h, static_cast<double>(d.shift_estimate));
    }
  }
  return h;
}

TEST(SimdDigestTest, CrossBuildDigest) {
  // In-binary half of the contract: the dispatched kernels and the forced
  // scalar path hash to the same bits.
  const std::uint64_t dispatched = KernelDigest();
  {
    ScopedForceScalar forced(true);
    EXPECT_EQ(dispatched, KernelDigest());
  }

  // Cross-build half, driven by tools/check.sh --simd: the CELLFI_SIMD=ON
  // tree writes the digest (CELLFI_SIMD_DIGEST_OUT), the =OFF tree reads
  // and compares it (CELLFI_SIMD_DIGEST_EXPECT). Both env knobs are
  // documented in README.md.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(dispatched));
  const std::string digest_hex(buf);
  if (const char* out_path = std::getenv("CELLFI_SIMD_DIGEST_OUT")) {
    std::ofstream out(out_path);
    ASSERT_TRUE(out.good()) << out_path;
    out << digest_hex << "\n";
  }
  if (const char* expect_path = std::getenv("CELLFI_SIMD_DIGEST_EXPECT")) {
    std::ifstream in(expect_path);
    ASSERT_TRUE(in.good()) << expect_path;
    std::string expected;
    in >> expected;
    EXPECT_EQ(expected, digest_hex)
        << "kernel digest differs from the other build configuration";
  }
}

}  // namespace
}  // namespace cellfi
