// Portable SIMD kernel layer (DESIGN.md §17).
//
// Small fixed-contract numeric kernels shared by the split-complex FFT
// butterflies (`common/fft.cc`) and the PRACH spectrum correlator
// (`phy/prach.cc`), plus the lane-combine tree of the SINR denominator's
// blocked accumulation order. Every kernel comes in two forms:
//
//   *Scalar   the reference implementation. Defines the semantics and is
//             compiled identically whether or not SIMD is enabled.
//   (plain)   the dispatching entry point. With CELLFI_SIMD=ON (the
//             default, compile definition CELLFI_SIMD_ENABLED) it selects
//             AVX2 or SSE2 on x86-64 (runtime cpuid check) or NEON on
//             aarch64; otherwise, and with CELLFI_SIMD=OFF, it calls the
//             scalar reference.
//
// Bit-identity contract: for every kernel, the vector variants perform
// exactly the same IEEE-754 operations per element in exactly the same
// order as the scalar reference, and no variant uses FMA contraction (the
// AVX2 functions are compiled with target("avx2"), which does not enable
// FMA). Scalar and SIMD builds are therefore bit-identical by
// construction; `ctest -L simd` (check.sh --simd) verifies it on the host,
// including a cross-build digest comparison between CELLFI_SIMD=OFF and
// ON trees.
//
// Blocked accumulation order (RadioEnvironment::SinrDb's denominator): a
// sequence x[0..n) is accumulated into 8 lanes, element i into lane
// (i mod 8), each lane summing its elements in increasing index order;
// lanes then combine with the fixed tree ReduceLanes8
//   ((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7)).
//
// Thread safety: all kernels are pure functions of their arguments.
// ForceScalar()/CELLFI_SIMD_DISABLE flip a process-global dispatch switch
// and must only be called/read single-threaded (bench and test setup),
// never between parallel shard phases.
#pragma once

#include <cstdlib>
#include <cstddef>

#if defined(CELLFI_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
#define CELLFI_SIMD_X86 1
#include <immintrin.h>
#elif defined(CELLFI_SIMD_ENABLED) && defined(__aarch64__)
#define CELLFI_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace cellfi::simd {

namespace detail {

/// Dispatch override: true = every dispatching kernel takes the scalar
/// path. Seeded once from CELLFI_SIMD_DISABLE; ForceScalar() flips it for
/// in-binary A/B benches and the scalar-vs-SIMD parity tests.
inline bool& ForceScalarFlag() {
  static bool flag = [] {
    const char* env = std::getenv("CELLFI_SIMD_DISABLE");
    return env != nullptr && *env != '\0';
  }();
  return flag;
}

#if defined(CELLFI_SIMD_X86)
inline bool HaveAvx2() {
  static const bool have = __builtin_cpu_supports("avx2") != 0;
  return have;
}
#endif

}  // namespace detail

/// Force the scalar reference path at runtime (single-threaded use only;
/// see the header comment). Returns the previous value.
inline bool ForceScalar(bool force) {
  const bool prev = detail::ForceScalarFlag();
  detail::ForceScalarFlag() = force;
  return prev;
}

/// Kernel the dispatching entry points select right now:
/// "avx2", "sse2", "neon" or "scalar". Stamped into BENCH_*.json
/// artifacts (BenchReport::Write) so recorded numbers name their kernel.
inline const char* ActiveKernelName() {
#if defined(CELLFI_SIMD_X86)
  if (detail::ForceScalarFlag()) return "scalar";
  return detail::HaveAvx2() ? "avx2" : "sse2";
#elif defined(CELLFI_SIMD_NEON)
  return detail::ForceScalarFlag() ? "scalar" : "neon";
#else
  return "scalar";
#endif
}

/// The fixed lane-combine tree of the blocked accumulation order
/// (RadioEnvironment::SinrDb accumulates its lanes inline).
inline double ReduceLanes8(const double* l) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/// Reference split-complex butterfly block: for k in [0, half),
///   (u, v) = (a[k], a[k+half]);  x = v * w[k];
///   a[k] = u + x;  a[k+half] = u - x;
/// with the complex product expanded as
///   x_re = v_re*w_re - v_im*w_im;  x_im = v_re*w_im + v_im*w_re.
inline void ButterflyBlockScalar(double* re, double* im, const double* tw_re,
                                 const double* tw_im, std::size_t half) {
  for (std::size_t k = 0; k < half; ++k) {
    const double ur = re[k];
    const double ui = im[k];
    const double vr = re[k + half];
    const double vi = im[k + half];
    const double tr = tw_re[k];
    const double ti = tw_im[k];
    const double xr = vr * tr - vi * ti;
    const double xi = vr * ti + vi * tr;
    re[k] = ur + xr;
    im[k] = ui + xi;
    re[k + half] = ur - xr;
    im[k + half] = ui - xi;
  }
}

/// Reference split-complex pointwise product a[i] *= b[i] (Bluestein's
/// chirp-filter multiply).
inline void CMulSplitScalar(double* a_re, double* a_im, const double* b_re,
                            const double* b_im, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = a_re[i];
    const double ai = a_im[i];
    const double br = b_re[i];
    const double bi = b_im[i];
    a_re[i] = ar * br - ai * bi;
    a_im[i] = ar * bi + ai * br;
  }
}

/// Reference interleaved conjugate product dst[i] = a[i] * conj(b[i]) over
/// n complex values stored as [re0, im0, re1, im1, ...] (the PRACH
/// frequency-domain correlation multiply; dst may alias a).
inline void ConjMulInterleavedScalar(double* dst, const double* a,
                                     const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = a[2 * i];
    const double ai = a[2 * i + 1];
    const double br = b[2 * i];
    const double bi = b[2 * i + 1];
    dst[2 * i] = ar * br + ai * bi;
    dst[2 * i + 1] = ai * br - ar * bi;
  }
}

/// Reference in-place scale x[i] *= s (inverse-FFT 1/N normalization).
inline void ScaleScalar(double* x, std::size_t n, double s) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= s;
}

#if defined(CELLFI_SIMD_X86)

namespace detail {

[[gnu::target("avx2")]] inline void ButterflyBlockAvx2(double* re, double* im,
                                                       const double* tw_re,
                                                       const double* tw_im,
                                                       std::size_t half) {
  std::size_t k = 0;
  for (; k + 4 <= half; k += 4) {
    const __m256d ur = _mm256_loadu_pd(re + k);
    const __m256d ui = _mm256_loadu_pd(im + k);
    const __m256d vr = _mm256_loadu_pd(re + k + half);
    const __m256d vi = _mm256_loadu_pd(im + k + half);
    const __m256d tr = _mm256_loadu_pd(tw_re + k);
    const __m256d ti = _mm256_loadu_pd(tw_im + k);
    const __m256d xr = _mm256_sub_pd(_mm256_mul_pd(vr, tr), _mm256_mul_pd(vi, ti));
    const __m256d xi = _mm256_add_pd(_mm256_mul_pd(vr, ti), _mm256_mul_pd(vi, tr));
    _mm256_storeu_pd(re + k, _mm256_add_pd(ur, xr));
    _mm256_storeu_pd(im + k, _mm256_add_pd(ui, xi));
    _mm256_storeu_pd(re + k + half, _mm256_sub_pd(ur, xr));
    _mm256_storeu_pd(im + k + half, _mm256_sub_pd(ui, xi));
  }
  for (; k < half; ++k) {
    const double ur = re[k];
    const double ui = im[k];
    const double vr = re[k + half];
    const double vi = im[k + half];
    const double xr = vr * tw_re[k] - vi * tw_im[k];
    const double xi = vr * tw_im[k] + vi * tw_re[k];
    re[k] = ur + xr;
    im[k] = ui + xi;
    re[k + half] = ur - xr;
    im[k + half] = ui - xi;
  }
}

inline void ButterflyBlockSse2(double* re, double* im, const double* tw_re,
                               const double* tw_im, std::size_t half) {
  std::size_t k = 0;
  for (; k + 2 <= half; k += 2) {
    const __m128d ur = _mm_loadu_pd(re + k);
    const __m128d ui = _mm_loadu_pd(im + k);
    const __m128d vr = _mm_loadu_pd(re + k + half);
    const __m128d vi = _mm_loadu_pd(im + k + half);
    const __m128d tr = _mm_loadu_pd(tw_re + k);
    const __m128d ti = _mm_loadu_pd(tw_im + k);
    const __m128d xr = _mm_sub_pd(_mm_mul_pd(vr, tr), _mm_mul_pd(vi, ti));
    const __m128d xi = _mm_add_pd(_mm_mul_pd(vr, ti), _mm_mul_pd(vi, tr));
    _mm_storeu_pd(re + k, _mm_add_pd(ur, xr));
    _mm_storeu_pd(im + k, _mm_add_pd(ui, xi));
    _mm_storeu_pd(re + k + half, _mm_sub_pd(ur, xr));
    _mm_storeu_pd(im + k + half, _mm_sub_pd(ui, xi));
  }
  for (; k < half; ++k) {
    const double ur = re[k];
    const double ui = im[k];
    const double vr = re[k + half];
    const double vi = im[k + half];
    const double xr = vr * tw_re[k] - vi * tw_im[k];
    const double xi = vr * tw_im[k] + vi * tw_re[k];
    re[k] = ur + xr;
    im[k] = ui + xi;
    re[k + half] = ur - xr;
    im[k + half] = ui - xi;
  }
}

[[gnu::target("avx2")]] inline void CMulSplitAvx2(double* a_re, double* a_im,
                                                  const double* b_re,
                                                  const double* b_im,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ar = _mm256_loadu_pd(a_re + i);
    const __m256d ai = _mm256_loadu_pd(a_im + i);
    const __m256d br = _mm256_loadu_pd(b_re + i);
    const __m256d bi = _mm256_loadu_pd(b_im + i);
    _mm256_storeu_pd(a_re + i,
                     _mm256_sub_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(ai, bi)));
    _mm256_storeu_pd(a_im + i,
                     _mm256_add_pd(_mm256_mul_pd(ar, bi), _mm256_mul_pd(ai, br)));
  }
  for (; i < n; ++i) {
    const double ar = a_re[i];
    const double ai = a_im[i];
    const double br = b_re[i];
    const double bi = b_im[i];
    a_re[i] = ar * br - ai * bi;
    a_im[i] = ar * bi + ai * br;
  }
}

[[gnu::target("avx2")]] inline void ConjMulInterleavedAvx2(double* dst,
                                                           const double* a,
                                                           const double* b,
                                                           std::size_t n) {
  // Two complex values per __m256d: [re0 im0 re1 im1].
  //   dst_re = ar*br + ai*bi        (hadd pair order == scalar formula)
  //   dst_im = ar*(-bi) + ai*br     (bitwise == ai*br - ar*bi)
  const __m256d neg_even =
      _mm256_castsi256_pd(_mm256_set_epi64x(0, static_cast<long long>(0x8000000000000000ull),
                                            0, static_cast<long long>(0x8000000000000000ull)));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d va = _mm256_loadu_pd(a + 2 * i);
    const __m256d vb = _mm256_loadu_pd(b + 2 * i);
    const __m256d t0 = _mm256_mul_pd(va, vb);  // [ar*br, ai*bi, ...]
    // [-bi, br, ...]: swap within pairs then negate the even slots.
    const __m256d vb_sw = _mm256_xor_pd(_mm256_permute_pd(vb, 0x5), neg_even);
    const __m256d t1 = _mm256_mul_pd(va, vb_sw);  // [ar*(-bi), ai*br, ...]
    _mm256_storeu_pd(dst + 2 * i, _mm256_hadd_pd(t0, t1));
  }
  for (; i < n; ++i) {
    const double ar = a[2 * i];
    const double ai = a[2 * i + 1];
    const double br = b[2 * i];
    const double bi = b[2 * i + 1];
    dst[2 * i] = ar * br + ai * bi;
    dst[2 * i + 1] = ai * br - ar * bi;
  }
}

[[gnu::target("avx2")]] inline void ScaleAvx2(double* x, std::size_t n, double s) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

inline void ScaleSse2(double* x, std::size_t n, double s) {
  const __m128d vs = _mm_set1_pd(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(x + i, _mm_mul_pd(_mm_loadu_pd(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

}  // namespace detail

#elif defined(CELLFI_SIMD_NEON)

namespace detail {

inline void ButterflyBlockNeon(double* re, double* im, const double* tw_re,
                               const double* tw_im, std::size_t half) {
  std::size_t k = 0;
  for (; k + 2 <= half; k += 2) {
    const float64x2_t ur = vld1q_f64(re + k);
    const float64x2_t ui = vld1q_f64(im + k);
    const float64x2_t vr = vld1q_f64(re + k + half);
    const float64x2_t vi = vld1q_f64(im + k + half);
    const float64x2_t tr = vld1q_f64(tw_re + k);
    const float64x2_t ti = vld1q_f64(tw_im + k);
    const float64x2_t xr = vsubq_f64(vmulq_f64(vr, tr), vmulq_f64(vi, ti));
    const float64x2_t xi = vaddq_f64(vmulq_f64(vr, ti), vmulq_f64(vi, tr));
    vst1q_f64(re + k, vaddq_f64(ur, xr));
    vst1q_f64(im + k, vaddq_f64(ui, xi));
    vst1q_f64(re + k + half, vsubq_f64(ur, xr));
    vst1q_f64(im + k + half, vsubq_f64(ui, xi));
  }
  for (; k < half; ++k) {
    const double ur = re[k];
    const double ui = im[k];
    const double vr = re[k + half];
    const double vi = im[k + half];
    const double xr = vr * tw_re[k] - vi * tw_im[k];
    const double xi = vr * tw_im[k] + vi * tw_re[k];
    re[k] = ur + xr;
    im[k] = ui + xi;
    re[k + half] = ur - xr;
    im[k + half] = ui - xi;
  }
}

inline void CMulSplitNeon(double* a_re, double* a_im, const double* b_re,
                          const double* b_im, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t ar = vld1q_f64(a_re + i);
    const float64x2_t ai = vld1q_f64(a_im + i);
    const float64x2_t br = vld1q_f64(b_re + i);
    const float64x2_t bi = vld1q_f64(b_im + i);
    vst1q_f64(a_re + i, vsubq_f64(vmulq_f64(ar, br), vmulq_f64(ai, bi)));
    vst1q_f64(a_im + i, vaddq_f64(vmulq_f64(ar, bi), vmulq_f64(ai, br)));
  }
  for (; i < n; ++i) {
    const double ar = a_re[i];
    const double ai = a_im[i];
    const double br = b_re[i];
    const double bi = b_im[i];
    a_re[i] = ar * br - ai * bi;
    a_im[i] = ar * bi + ai * br;
  }
}

inline void ScaleNeon(double* x, std::size_t n, double s) {
  const float64x2_t vs = vdupq_n_f64(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) vst1q_f64(x + i, vmulq_f64(vld1q_f64(x + i), vs));
  for (; i < n; ++i) x[i] *= s;
}

}  // namespace detail

#endif  // CELLFI_SIMD_NEON

/// One split-complex butterfly block (see ButterflyBlockScalar).
inline void ButterflyBlock(double* re, double* im, const double* tw_re,
                           const double* tw_im, std::size_t half) {
#if defined(CELLFI_SIMD_X86)
  if (!detail::ForceScalarFlag()) {
    if (detail::HaveAvx2()) {
      detail::ButterflyBlockAvx2(re, im, tw_re, tw_im, half);
    } else {
      detail::ButterflyBlockSse2(re, im, tw_re, tw_im, half);
    }
    return;
  }
#elif defined(CELLFI_SIMD_NEON)
  if (!detail::ForceScalarFlag()) {
    detail::ButterflyBlockNeon(re, im, tw_re, tw_im, half);
    return;
  }
#endif
  ButterflyBlockScalar(re, im, tw_re, tw_im, half);
}

/// Split-complex pointwise product a[i] *= b[i].
inline void CMulSplit(double* a_re, double* a_im, const double* b_re,
                      const double* b_im, std::size_t n) {
#if defined(CELLFI_SIMD_X86)
  if (!detail::ForceScalarFlag() && detail::HaveAvx2()) {
    detail::CMulSplitAvx2(a_re, a_im, b_re, b_im, n);
    return;
  }
#elif defined(CELLFI_SIMD_NEON)
  if (!detail::ForceScalarFlag()) {
    detail::CMulSplitNeon(a_re, a_im, b_re, b_im, n);
    return;
  }
#endif
  CMulSplitScalar(a_re, a_im, b_re, b_im, n);
}

/// Interleaved conjugate product dst[i] = a[i] * conj(b[i]) (dst may
/// alias a). SSE2 has no hadd; non-AVX2 x86 takes the scalar path.
inline void ConjMulInterleaved(double* dst, const double* a, const double* b,
                               std::size_t n) {
#if defined(CELLFI_SIMD_X86)
  if (!detail::ForceScalarFlag() && detail::HaveAvx2()) {
    detail::ConjMulInterleavedAvx2(dst, a, b, n);
    return;
  }
#endif
  ConjMulInterleavedScalar(dst, a, b, n);
}

/// In-place x[i] *= s.
inline void Scale(double* x, std::size_t n, double s) {
#if defined(CELLFI_SIMD_X86)
  if (!detail::ForceScalarFlag()) {
    if (detail::HaveAvx2()) {
      detail::ScaleAvx2(x, n, s);
    } else {
      detail::ScaleSse2(x, n, s);
    }
    return;
  }
#elif defined(CELLFI_SIMD_NEON)
  if (!detail::ForceScalarFlag()) {
    detail::ScaleNeon(x, n, s);
    return;
  }
#endif
  ScaleScalar(x, n, s);
}

}  // namespace cellfi::simd
