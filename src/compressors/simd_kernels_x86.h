#pragma once

// Vector bodies of the predict+quantize row kernels, included by the per-ISA
// translation units with
//   MRC_SIMD_NS    the implementation namespace (e.g. ksse2 / kavx2)
//   MRC_SIMD_AVX2  1 for one 256-bit double vector per step, 0 for a pair of
//                  128-bit vectors (the x86-64 SSE2 baseline)
//
// Everything here must stay bit-identical to the scalar reference in
// simd_kernels_scalar.h. The rules that make that true:
//   * every scalar operation maps to exactly one vector operation in the
//     same order (no FMA — these TUs are never compiled with -mfma, and
//     contraction cannot happen without it),
//   * llround is emulated as trunc(x + copysign(0.5 - 2^-54, x)) + 0.0 —
//     precisely round-half-away-from-zero (the addend just below one half
//     keeps a value below a half from rounding up across the integer) with a
//     +0, never -0, for a zero result, as the integer llround converts back
//     to,
//   * the scalar |diff| < 2*eb*radius and |q| < radius checks fold into one
//     exact |x| < radius - 1/2 compare on x = diff / (2*eb),
//   * negation is a sign-bit xor (vsub(0, a) would flip the sign of zero
//     differently),
//   * lanes that fail any quantizer check compute garbage freely and are
//     masked out of the code/recon stores; outliers are patched from the
//     lane mask in ascending order, matching the scalar push order,
//   * radius >= 2^30 (codes would not fit int32) falls back to scalar.

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "compressors/simd_kernels.h"
#include "compressors/simd_kernels_scalar.h"

namespace mrc::simd::MRC_SIMD_NS {

namespace sd = mrc::simd::detail;

#if MRC_SIMD_AVX2

using vd = __m256d;
inline vd vset1(double x) { return _mm256_set1_pd(x); }
inline vd vadd(vd a, vd b) { return _mm256_add_pd(a, b); }
inline vd vsub(vd a, vd b) { return _mm256_sub_pd(a, b); }
inline vd vmul(vd a, vd b) { return _mm256_mul_pd(a, b); }
inline vd vdiv(vd a, vd b) { return _mm256_div_pd(a, b); }
inline vd vand(vd a, vd b) { return _mm256_and_pd(a, b); }
inline vd vandnot(vd a, vd b) { return _mm256_andnot_pd(a, b); }  // ~a & b
inline vd vxor(vd a, vd b) { return _mm256_xor_pd(a, b); }
inline vd cmp_lt(vd a, vd b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
inline vd cmp_le(vd a, vd b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
inline vd cmp_eq(vd a, vd b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
inline vd cvt_f(__m128 f) { return _mm256_cvtps_pd(f); }
inline __m128 cvt_d(vd x) { return _mm256_cvtpd_ps(x); }
inline __m128i cvtt_i(vd x) { return _mm256_cvttpd_epi32(x); }
inline vd cvt_i(__m128i x) { return _mm256_cvtepi32_pd(x); }
inline vd viota(double base) {
  return _mm256_setr_pd(base, base + 1.0, base + 2.0, base + 3.0);
}
inline vd vor(vd a, vd b) { return _mm256_or_pd(a, b); }
inline vd vtrunc(vd x) { return _mm256_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC); }
inline vd vload(const double* p) { return _mm256_loadu_pd(p); }
inline void vstore(double* p, vd x) { _mm256_storeu_pd(p, x); }

#else  // SSE2 pair

struct vd {
  __m128d lo, hi;
};
inline vd vset1(double x) { return {_mm_set1_pd(x), _mm_set1_pd(x)}; }
inline vd vadd(vd a, vd b) { return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)}; }
inline vd vsub(vd a, vd b) { return {_mm_sub_pd(a.lo, b.lo), _mm_sub_pd(a.hi, b.hi)}; }
inline vd vmul(vd a, vd b) { return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)}; }
inline vd vdiv(vd a, vd b) { return {_mm_div_pd(a.lo, b.lo), _mm_div_pd(a.hi, b.hi)}; }
inline vd vand(vd a, vd b) { return {_mm_and_pd(a.lo, b.lo), _mm_and_pd(a.hi, b.hi)}; }
inline vd vandnot(vd a, vd b) {
  return {_mm_andnot_pd(a.lo, b.lo), _mm_andnot_pd(a.hi, b.hi)};
}
inline vd vxor(vd a, vd b) { return {_mm_xor_pd(a.lo, b.lo), _mm_xor_pd(a.hi, b.hi)}; }
inline vd cmp_lt(vd a, vd b) {
  return {_mm_cmplt_pd(a.lo, b.lo), _mm_cmplt_pd(a.hi, b.hi)};
}
inline vd cmp_le(vd a, vd b) {
  return {_mm_cmple_pd(a.lo, b.lo), _mm_cmple_pd(a.hi, b.hi)};
}
inline vd cmp_eq(vd a, vd b) {
  return {_mm_cmpeq_pd(a.lo, b.lo), _mm_cmpeq_pd(a.hi, b.hi)};
}
inline vd cvt_f(__m128 f) {
  return {_mm_cvtps_pd(f), _mm_cvtps_pd(_mm_movehl_ps(f, f))};
}
inline __m128 cvt_d(vd x) {
  return _mm_movelh_ps(_mm_cvtpd_ps(x.lo), _mm_cvtpd_ps(x.hi));
}
inline __m128i cvtt_i(vd x) {
  return _mm_unpacklo_epi64(_mm_cvttpd_epi32(x.lo), _mm_cvttpd_epi32(x.hi));
}
inline vd cvt_i(__m128i x) {
  return {_mm_cvtepi32_pd(x),
          _mm_cvtepi32_pd(_mm_shuffle_epi32(x, _MM_SHUFFLE(1, 0, 3, 2)))};
}
inline __m128 mask_ps(vd m) {
  return _mm_shuffle_ps(_mm_castpd_ps(m.lo), _mm_castpd_ps(m.hi),
                        _MM_SHUFFLE(2, 0, 2, 0));
}
inline vd viota(double base) {
  return {_mm_setr_pd(base, base + 1.0), _mm_setr_pd(base + 2.0, base + 3.0)};
}
inline vd vor(vd a, vd b) { return {_mm_or_pd(a.lo, b.lo), _mm_or_pd(a.hi, b.hi)}; }
/// Truncation through int32 (SSE2 has no roundpd): exact for |x| < 2^31.
inline vd vtrunc(vd x) {
  return {_mm_cvtepi32_pd(_mm_cvttpd_epi32(x.lo)), _mm_cvtepi32_pd(_mm_cvttpd_epi32(x.hi))};
}
inline vd vload(const double* p) { return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)}; }
inline void vstore(double* p, vd x) {
  _mm_storeu_pd(p, x.lo);
  _mm_storeu_pd(p + 2, x.hi);
}

#endif

inline vd vabs(vd x) { return vandnot(vset1(-0.0), x); }
inline vd vneg(vd x) { return vxor(x, vset1(-0.0)); }

/// Vector quantizer constants (sd::QP broadcast, plus llround helpers).
struct QV {
  vd two_eb, radius_d, radius_lim, eb, half, below_half, sign, zero;
};
inline QV make_qv(const sd::QP& p) {
  return {vset1(p.two_eb), vset1(p.radius_d),
          vset1(p.radius_d - 0.5), vset1(p.eb),
          vset1(0.5),      vset1(0.49999999999999994),  // 0.5 - 2^-54
          vset1(-0.0),     vset1(0.0)};
}

/// std::llround in the double domain: trunc(x + copysign(0.5 - 2^-54, x)).
/// The addend sits just below one half, so the sum never rounds a value
/// below a half up across the next integer, while exact halves still reach
/// it; + 0.0 then turns a -0 into the +0 the integer llround converts back
/// to. Valid for |x| < 2^31 (SSE2 truncates through int32); lanes outside
/// always fail the quantizer's radius check and are masked off.
inline vd round_llround(vd x, const QV& qv) {
  const vd addend = vor(vand(x, qv.sign), qv.below_half);
  return vadd(vtrunc(vadd(x, addend)), qv.zero);
}

#if MRC_SIMD_AVX2
/// Stores the codes (0 in escaped lanes) and the reconstruction (cand, or
/// the original float bit for bit) of 4 lanes whose quantizer checks passed
/// in `ok`; returns the escaped-lane mask.
inline int store4(vd ok, vd code, __m128 candf, __m128 forig, std::uint32_t* codes,
                  float* recon) {
  // An all-ones double narrows to a sign-set NaN and zero to zero: a blendv mask.
  const __m128 mf = _mm256_cvtpd_ps(ok);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(codes), cvtt_i(vand(code, ok)));
  _mm_storeu_ps(recon, _mm_blendv_ps(forig, candf, mf));
  return _mm256_movemask_pd(ok) ^ 0xf;
}
#else
inline int store4(vd ok, vd code, __m128 candf, __m128 forig, std::uint32_t* codes,
                  float* recon) {
  const __m128 mf = mask_ps(ok);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(codes),
                   _mm_and_si128(cvtt_i(code), _mm_castps_si128(mf)));
  _mm_storeu_ps(recon, _mm_or_ps(_mm_and_ps(mf, candf), _mm_andnot_ps(mf, forig)));
  return _mm_movemask_ps(mf) ^ 0xf;
}
#endif

/// Quantizes 4 lanes against `pred`, storing codes+recon; returns the
/// outlier lane mask (bit b set => lane b escaped).
inline int quant4(__m128 forig, vd pred, const QV& qv, std::uint32_t* codes,
                  float* recon) {
  const vd xd = cvt_f(forig);
  const vd x = vdiv(vsub(xd, pred), qv.two_eb);
  // |x| < radius - 1/2 is exactly llabs(llround(x)) < radius, and it implies
  // the scalar pre-check |diff| < 2*eb*radius (radius < 2^30), so one
  // compare stands for both.
  const vd ok2 = cmp_lt(vabs(x), qv.radius_lim);
  const vd q = round_llround(x, qv);
  const __m128 candf = cvt_d(vadd(pred, vmul(qv.two_eb, q)));
  const vd candd = cvt_f(candf);
  const vd ok = vand(ok2, cmp_le(vabs(vsub(candd, xd)), qv.eb));
  return store4(ok, vadd(q, qv.radius_d), candf, forig, codes, recon);
}

inline void push_bad(const float* orig, int bad, AlignedVec<float>& outliers) {
  while (bad != 0) {
    const int b = std::countr_zero(static_cast<unsigned>(bad));
    outliers.push_back(orig[b]);
    bad &= bad - 1;
  }
}

/// Dequantizes 4 lanes; outlier (code 0) lanes hold garbage for the caller
/// to patch. Returns the outlier lane mask.
inline int dequant4(const std::uint32_t* codes, vd pred, const QV& qv, float* recon) {
  const __m128i ci = _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes));
  const int zmask =
      _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(ci, _mm_setzero_si128())));
  const vd qd = vsub(cvt_i(ci), qv.radius_d);
  _mm_storeu_ps(recon, cvt_d(vadd(pred, vmul(qv.two_eb, qd))));
  return zmask;
}

inline void patch_outliers(float* recon, int zmask, std::span<const float> outliers,
                           std::size_t& pos) {
  while (zmask != 0) {
    const int b = std::countr_zero(static_cast<unsigned>(zmask));
    if (pos >= outliers.size()) throw CodecError("quantizer: outlier underrun");
    recon[b] = outliers[pos++];
    zmask &= zmask - 1;
  }
}

/// Codes are masked into int32 lanes, so a radius at or past 2^30 (code
/// range 2*radius would overflow) takes the scalar path instead.
inline bool vectorizable(std::uint32_t radius, std::size_t n) {
  return radius < (1u << 30) && n >= 4;
}

void k_quantize_linear(const float* orig, const float* lo, const float* hi,
                       std::size_t n, double eb, std::uint32_t radius,
                       std::uint32_t* codes, float* recon, AlignedVec<float>& outliers) {
  if (!vectorizable(radius, n)) {
    sd::s_quantize_linear(orig, lo, hi, n, eb, radius, codes, recon, outliers);
    return;
  }
  const QV qv = make_qv(sd::make_qp(eb, radius));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Neighbour sum in FLOAT first — that is what the scalar expression does.
    const __m128 s = _mm_add_ps(_mm_loadu_ps(lo + i), _mm_loadu_ps(hi + i));
    const vd pred = vmul(qv.half, cvt_f(s));
    const int bad = quant4(_mm_loadu_ps(orig + i), pred, qv, codes + i, recon + i);
    if (bad != 0) push_bad(orig + i, bad, outliers);
  }
  sd::s_quantize_linear(orig, lo, hi, n, eb, radius, codes, recon, outliers, i);
}

void k_quantize_cubic(const float* orig, const float* a, const float* b, const float* c,
                      const float* d, std::size_t n, double eb, std::uint32_t radius,
                      std::uint32_t* codes, float* recon, AlignedVec<float>& outliers) {
  if (!vectorizable(radius, n)) {
    sd::s_quantize_cubic(orig, a, b, c, d, n, eb, radius, codes, recon, outliers);
    return;
  }
  const QV qv = make_qv(sd::make_qp(eb, radius));
  const vd nine = vset1(9.0), sixteen = vset1(16.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const vd A = cvt_f(_mm_loadu_ps(a + i)), B = cvt_f(_mm_loadu_ps(b + i));
    const vd C = cvt_f(_mm_loadu_ps(c + i)), D = cvt_f(_mm_loadu_ps(d + i));
    vd t = vadd(vneg(A), vmul(nine, B));
    t = vadd(t, vmul(nine, C));
    t = vsub(t, D);
    const vd pred = vdiv(t, sixteen);
    const int bad = quant4(_mm_loadu_ps(orig + i), pred, qv, codes + i, recon + i);
    if (bad != 0) push_bad(orig + i, bad, outliers);
  }
  sd::s_quantize_cubic(orig, a, b, c, d, n, eb, radius, codes, recon, outliers, i);
}

void k_quantize_constant(const float* orig, const float* src, std::size_t n, double eb,
                         std::uint32_t radius, std::uint32_t* codes, float* recon,
                         AlignedVec<float>& outliers) {
  if (!vectorizable(radius, n)) {
    sd::s_quantize_constant(orig, src, n, eb, radius, codes, recon, outliers);
    return;
  }
  const QV qv = make_qv(sd::make_qp(eb, radius));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const vd pred = cvt_f(_mm_loadu_ps(src + i));
    const int bad = quant4(_mm_loadu_ps(orig + i), pred, qv, codes + i, recon + i);
    if (bad != 0) push_bad(orig + i, bad, outliers);
  }
  sd::s_quantize_constant(orig, src, n, eb, radius, codes, recon, outliers, i);
}

/// Quantizes orig[0..n) against explicit predictions (vectorizable n).
inline void quantize_run(const float* orig, const double* pred, std::size_t n, double eb,
                         std::uint32_t radius, std::uint32_t* codes, float* recon,
                         AlignedVec<float>& outliers) {
  const QV qv = make_qv(sd::make_qp(eb, radius));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int bad = quant4(_mm_loadu_ps(orig + i), vload(pred + i), qv, codes + i, recon + i);
    if (bad != 0) push_bad(orig + i, bad, outliers);
  }
  sd::s_quantize_run(orig, pred, n, eb, radius, codes, recon, outliers, i);
}

void k_dequantize_linear(const std::uint32_t* codes, const float* lo, const float* hi,
                         std::size_t n, double eb, std::uint32_t radius, float* recon,
                         std::span<const float> outliers, std::size_t& pos) {
  if (!vectorizable(radius, n)) {
    sd::s_dequantize_linear(codes, lo, hi, n, eb, radius, recon, outliers, pos);
    return;
  }
  const QV qv = make_qv(sd::make_qp(eb, radius));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 s = _mm_add_ps(_mm_loadu_ps(lo + i), _mm_loadu_ps(hi + i));
    const vd pred = vmul(qv.half, cvt_f(s));
    const int z = dequant4(codes + i, pred, qv, recon + i);
    if (z != 0) patch_outliers(recon + i, z, outliers, pos);
  }
  sd::s_dequantize_linear(codes, lo, hi, n, eb, radius, recon, outliers, pos, i);
}

void k_dequantize_cubic(const std::uint32_t* codes, const float* a, const float* b,
                        const float* c, const float* d, std::size_t n, double eb,
                        std::uint32_t radius, float* recon,
                        std::span<const float> outliers, std::size_t& pos) {
  if (!vectorizable(radius, n)) {
    sd::s_dequantize_cubic(codes, a, b, c, d, n, eb, radius, recon, outliers, pos);
    return;
  }
  const QV qv = make_qv(sd::make_qp(eb, radius));
  const vd nine = vset1(9.0), sixteen = vset1(16.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const vd A = cvt_f(_mm_loadu_ps(a + i)), B = cvt_f(_mm_loadu_ps(b + i));
    const vd C = cvt_f(_mm_loadu_ps(c + i)), D = cvt_f(_mm_loadu_ps(d + i));
    vd t = vadd(vneg(A), vmul(nine, B));
    t = vadd(t, vmul(nine, C));
    t = vsub(t, D);
    const vd pred = vdiv(t, sixteen);
    const int z = dequant4(codes + i, pred, qv, recon + i);
    if (z != 0) patch_outliers(recon + i, z, outliers, pos);
  }
  sd::s_dequantize_cubic(codes, a, b, c, d, n, eb, radius, recon, outliers, pos, i);
}

void k_dequantize_constant(const std::uint32_t* codes, const float* src, std::size_t n,
                           double eb, std::uint32_t radius, float* recon,
                           std::span<const float> outliers, std::size_t& pos) {
  if (!vectorizable(radius, n)) {
    sd::s_dequantize_constant(codes, src, n, eb, radius, recon, outliers, pos);
    return;
  }
  const QV qv = make_qv(sd::make_qp(eb, radius));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const vd pred = cvt_f(_mm_loadu_ps(src + i));
    const int z = dequant4(codes + i, pred, qv, recon + i);
    if (z != 0) patch_outliers(recon + i, z, outliers, pos);
  }
  sd::s_dequantize_constant(codes, src, n, eb, radius, recon, outliers, pos, i);
}

/// Inverse of quantize_run (vectorizable n).
inline void dequantize_run(const std::uint32_t* codes, const double* pred, std::size_t n,
                           double eb, std::uint32_t radius, float* recon,
                           std::span<const float> outliers, std::size_t& pos) {
  const QV qv = make_qv(sd::make_qp(eb, radius));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int z = dequant4(codes + i, vload(pred + i), qv, recon + i);
    if (z != 0) patch_outliers(recon + i, z, outliers, pos);
  }
  sd::s_dequantize_run(codes, pred, n, eb, radius, recon, outliers, pos, i);
}

// Regression blocks: the block is gathered into one contiguous run so the
// quantizer sees whole vectors instead of a 6-sample row's one vector and
// two scalar tail elements, predicted with the scalar expression's exact
// operations, quantized, and its reconstruction scattered back.

/// Copies n floats with 4-wide moves and a scalar tail (no library call
/// for the short rows, and never a read or write past either end).
inline void copy_floats(const float* src, std::int64_t n, float* dst) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) _mm_storeu_ps(dst + i, _mm_loadu_ps(src + i));
  switch (n - i) {
    case 3: dst[i + 2] = src[i + 2]; [[fallthrough]];
    case 2: dst[i + 1] = src[i + 1]; [[fallthrough]];
    case 1: dst[i] = src[i]; break;
    default: break;
  }
}

/// Block plane predictions in k, j, i order into s.doubles[0..n): per row,
/// (((m + gx*(i-ci)) + aj) + ak) as in sd::pred_plane, four at a time —
/// a row's last vector spills into the next row's slots (rewritten next)
/// or the 4-double slack after the run.
inline const double* plane_run(const PlaneBlock& b, BlockScratch& s) {
  const auto n = static_cast<std::size_t>(b.ex * b.ey * b.ez);
  const std::int64_t ex4 = (b.ex + 3) & ~std::int64_t{3};
  s.doubles.resize(n + 4 + static_cast<std::size_t>(ex4));
  double* pred = s.doubles.data();
  double* row_terms = pred + n + 4;
  const Plane& p = b.plane;
  const double ci = (b.ex - 1) / 2.0, cj = (b.ey - 1) / 2.0, ck = (b.ez - 1) / 2.0;
  const vd m = vset1(p.m), gx = vset1(p.gx), vci = vset1(ci);
  for (std::int64_t i = 0; i < ex4; i += 4)
    vstore(row_terms + i,
           vadd(m, vmul(gx, vsub(viota(static_cast<double>(i)), vci))));
  for (std::int64_t k = 0; k < b.ez; ++k) {
    const vd ak = vset1(p.gz * (static_cast<double>(k) - ck));
    for (std::int64_t j = 0; j < b.ey; ++j, pred += b.ex) {
      const vd aj = vset1(p.gy * (static_cast<double>(j) - cj));
      for (std::int64_t i = 0; i < b.ex; i += 4)
        vstore(pred + i, vadd(vadd(vload(row_terms + i), aj), ak));
    }
  }
  return s.doubles.data();
}

inline void scatter_block(const PlaneBlock& b, const float* run, float* recon) {
  for (std::int64_t k = 0; k < b.ez; ++k)
    for (std::int64_t j = 0; j < b.ey; ++j, run += b.ex)
      copy_floats(run, b.ex, recon + j * b.sy + k * b.sz);
}

void k_quantize_block_plane(const PlaneBlock& b, const float* orig, double eb,
                            std::uint32_t radius, std::uint32_t* codes, float* recon,
                            AlignedVec<float>& outliers, BlockScratch& s) {
  const auto n = static_cast<std::size_t>(b.ex * b.ey * b.ez);
  if (!vectorizable(radius, n)) {
    sd::s_quantize_block_plane(b, orig, eb, radius, codes, recon, outliers);
    return;
  }
  const double* pred = plane_run(b, s);
  s.floats.resize(2 * n);  // the gathered block, then its reconstruction
  float* run = s.floats.data();
  float* dst = run;
  for (std::int64_t k = 0; k < b.ez; ++k)
    for (std::int64_t j = 0; j < b.ey; ++j, dst += b.ex)
      copy_floats(orig + j * b.sy + k * b.sz, b.ex, dst);
  quantize_run(run, pred, n, eb, radius, codes, run + n, outliers);
  scatter_block(b, run + n, recon);
}

void k_dequantize_block_plane(const PlaneBlock& b, const std::uint32_t* codes, double eb,
                              std::uint32_t radius, float* recon,
                              std::span<const float> outliers, std::size_t& pos,
                              BlockScratch& s) {
  const auto n = static_cast<std::size_t>(b.ex * b.ey * b.ez);
  if (!vectorizable(radius, n)) {
    sd::s_dequantize_block_plane(b, codes, eb, radius, recon, outliers, pos);
    return;
  }
  const double* pred = plane_run(b, s);
  s.floats.resize(n);
  dequantize_run(codes, pred, n, eb, radius, s.floats.data(), outliers, pos);
  scatter_block(b, s.floats.data(), recon);
}

// Predictor selection, four same-shape blocks per pass, block b in lane b.
// The blocks are first transposed into cells: one 4-double vector per
// position of the block grown by one sample towards -x, -y and -z, holding
// the four blocks' samples there, with zero where the stencil would leave
// the field or the chunk (x < 0, y < 0, z < zmin) — exactly the zero the
// checked stencil substitutes. Every Lorenzo neighbour is then a plain
// vector load, and each lane's six sums add in the scalar k, j, i order.
void k_select_blocks(const float* orig, std::int64_t nx, std::int64_t ny,
                     std::int64_t zmin, const BlockOrigin* blocks, std::size_t n,
                     std::int64_t ex, std::int64_t ey, std::int64_t ez, BlockFit* fits,
                     BlockScratch& scratch) {
  const std::int64_t tx = ex + 1, ty = ey + 1, tz = ez + 1;
  const std::int64_t tx4 = (tx + 3) & ~std::int64_t{3};  // whole 4x4 transposes
  const std::int64_t cy = 4 * tx, cz = 4 * tx * ty;      // cell strides in doubles
  // Cells (a row's last transpose spills up to 3 cells into the next row,
  // rewritten there, or into the slack), then pass 2's per-i plane terms.
  scratch.doubles.resize(static_cast<std::size_t>(cz * tz + 4 * (tx4 - tx) + 4 * ex));
  double* const t = scratch.doubles.data();
  double* const base = t + cz * tz + 4 * (tx4 - tx);
  // A zero row for lanes outside the field, then one staging row per lane
  // for rows a direct tx4-float read would overrun.
  scratch.floats.assign(static_cast<std::size_t>(5 * tx4), 0.0f);
  const float* const zeros = scratch.floats.data();

  const sd::FitNorms fn = sd::fit_norms(ex, ey, ez);
  const double ci = fn.ci, cj = fn.cj, ck = fn.ck;
  const vd zero = vset1(0.0);

  for (std::size_t g = 0; g < n; g += 4) {
    const std::size_t lanes = n - g < 4 ? n - g : 4;
    for (std::int64_t kk = 0; kk < tz; ++kk)
      for (std::int64_t jj = 0; jj < ty; ++jj) {
        const float* src[4];
        for (std::size_t b = 0; b < 4; ++b) {
          src[b] = zeros;
          if (b >= lanes) continue;
          const BlockOrigin& o = blocks[g + b];
          const std::int64_t y = o.y + jj - 1, z = o.z + kk - 1;
          if (y < 0 || z < zmin) continue;
          const float* row = orig + o.x + nx * (y + ny * z);
          if (o.x >= 1 && o.x - 1 + tx4 <= nx) {
            src[b] = row - 1;
            continue;
          }
          float* st = scratch.floats.data() + (b + 1) * tx4;
          st[0] = o.x >= 1 ? row[-1] : 0.0f;
          copy_floats(row, ex, st + 1);
          src[b] = st;
        }
        double* cell = t + kk * cz + jj * cy;
        for (std::int64_t ii = 0; ii < tx; ii += 4, cell += 16) {
          __m128 r0 = _mm_loadu_ps(src[0] + ii), r1 = _mm_loadu_ps(src[1] + ii);
          __m128 r2 = _mm_loadu_ps(src[2] + ii), r3 = _mm_loadu_ps(src[3] + ii);
          _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
          vstore(cell, cvt_f(r0));
          vstore(cell + 4, cvt_f(r1));
          vstore(cell + 8, cvt_f(r2));
          vstore(cell + 12, cvt_f(r3));
        }
      }

    // Pass 1: plane-fit sums and the Lorenzo-on-original error sum.
    vd s = zero, sx = zero, sy = zero, sz = zero, el = zero;
    for (std::int64_t k = 0; k < ez; ++k) {
      const vd dk = vset1(static_cast<double>(k) - ck);
      for (std::int64_t j = 0; j < ey; ++j) {
        const vd dj = vset1(static_cast<double>(j) - cj);
        const double* c = t + (k + 1) * cz + (j + 1) * cy + 4;
        for (std::int64_t i = 0; i < ex; ++i, c += 4) {
          const vd v = vload(c);
          s = vadd(s, v);
          sx = vadd(sx, vmul(v, vset1(static_cast<double>(i) - ci)));
          sy = vadd(sy, vmul(v, dj));
          sz = vadd(sz, vmul(v, dk));
          vd lor = vadd(vload(c - 4), vload(c - cy));
          lor = vadd(lor, vload(c - cz));
          lor = vsub(lor, vload(c - 4 - cy));
          lor = vsub(lor, vload(c - 4 - cz));
          lor = vsub(lor, vload(c - cy - cz));
          lor = vadd(lor, vload(c - 4 - cy - cz));
          el = vadd(el, vabs(vsub(v, lor)));
        }
      }
    }
    const vd m = vdiv(s, vset1(fn.n));
    const vd gx = fn.vx > 0 ? vdiv(sx, vset1(fn.vx)) : zero;
    const vd gy = fn.vy > 0 ? vdiv(sy, vset1(fn.vy)) : zero;
    const vd gz = fn.vz > 0 ? vdiv(sz, vset1(fn.vz)) : zero;

    // Pass 2: the plane's error sum, ((m + gx*di) + gy*dj) + gz*dk per sample.
    for (std::int64_t i = 0; i < ex; ++i)
      vstore(base + 4 * i, vadd(m, vmul(gx, vset1(static_cast<double>(i) - ci))));
    vd er = zero;
    for (std::int64_t k = 0; k < ez; ++k) {
      const vd ak = vmul(gz, vset1(static_cast<double>(k) - ck));
      for (std::int64_t j = 0; j < ey; ++j) {
        const vd aj = vmul(gy, vset1(static_cast<double>(j) - cj));
        const double* c = t + (k + 1) * cz + (j + 1) * cy + 4;
        for (std::int64_t i = 0; i < ex; ++i, c += 4) {
          const vd pr = vadd(vadd(vload(base + 4 * i), aj), ak);
          er = vadd(er, vabs(vsub(vload(c), pr)));
        }
      }
    }

    alignas(32) double lm[4], lgx[4], lgy[4], lgz[4], ler[4], lel[4];
    vstore(lm, m);
    vstore(lgx, gx);
    vstore(lgy, gy);
    vstore(lgz, gz);
    vstore(ler, er);
    vstore(lel, el);
    for (std::size_t b = 0; b < lanes; ++b)
      fits[g + b] = {{lm[b], lgx[b], lgy[b], lgz[b]}, ler[b], lel[b]};
  }
}

// Float min/max: one register of floats per load, four loads per step so
// four independent min and max chains hide the instruction latency. A NaN
// is detected with unordered compares (minps/maxps would silently drop it)
// and reported instead of folded; the dispatcher then rescans.
#if MRC_SIMD_AVX2
using vf = __m256;
inline vf vf_load(const float* p) { return _mm256_loadu_ps(p); }
inline vf vf_min(vf a, vf b) { return _mm256_min_ps(a, b); }
inline vf vf_max(vf a, vf b) { return _mm256_max_ps(a, b); }
inline vf vf_or(vf a, vf b) { return _mm256_or_ps(a, b); }
inline vf vf_unord(vf a, vf b) { return _mm256_cmp_ps(a, b, _CMP_UNORD_Q); }
inline int vf_any(vf m) { return _mm256_movemask_ps(m); }
inline void vf_store(float* p, vf a) { _mm256_storeu_ps(p, a); }
#else
using vf = __m128;
inline vf vf_load(const float* p) { return _mm_loadu_ps(p); }
inline vf vf_min(vf a, vf b) { return _mm_min_ps(a, b); }
inline vf vf_max(vf a, vf b) { return _mm_max_ps(a, b); }
inline vf vf_or(vf a, vf b) { return _mm_or_ps(a, b); }
inline vf vf_unord(vf a, vf b) { return _mm_cmpunord_ps(a, b); }
inline int vf_any(vf m) { return _mm_movemask_ps(m); }
inline void vf_store(float* p, vf a) { _mm_storeu_ps(p, a); }
#endif

bool k_min_max_f32(const float* p, std::size_t n, float& lo, float& hi) {
  constexpr std::size_t kW = sizeof(vf) / sizeof(float);
  constexpr std::size_t kStep = 4 * kW;
  lo = hi = p[0];
  std::size_t i = 0;
  if (n >= kStep) {
    vf l0 = vf_load(p), l1 = vf_load(p + kW), l2 = vf_load(p + 2 * kW),
       l3 = vf_load(p + 3 * kW);
    vf h0 = l0, h1 = l1, h2 = l2, h3 = l3;
    vf nan = vf_or(vf_unord(l0, l1), vf_unord(l2, l3));
    for (i = kStep; i + kStep <= n; i += kStep) {
      const vf a = vf_load(p + i), b = vf_load(p + i + kW);
      const vf c = vf_load(p + i + 2 * kW), d = vf_load(p + i + 3 * kW);
      l0 = vf_min(l0, a); l1 = vf_min(l1, b); l2 = vf_min(l2, c); l3 = vf_min(l3, d);
      h0 = vf_max(h0, a); h1 = vf_max(h1, b); h2 = vf_max(h2, c); h3 = vf_max(h3, d);
      nan = vf_or(nan, vf_or(vf_unord(a, b), vf_unord(c, d)));
    }
    if (vf_any(nan) != 0) return false;
    float ls[kW], hs[kW];
    vf_store(ls, vf_min(vf_min(l0, l1), vf_min(l2, l3)));
    vf_store(hs, vf_max(vf_max(h0, h1), vf_max(h2, h3)));
    for (std::size_t k = 0; k < kW; ++k) {
      lo = ls[k] < lo ? ls[k] : lo;
      hi = hi < hs[k] ? hs[k] : hi;
    }
  }
  return sd::s_min_max_f32(p, n, lo, hi, i);
}

inline constexpr mrc::simd::detail::KernelTable kTable = {
    k_quantize_linear,     k_quantize_cubic,         k_quantize_constant,
    k_quantize_block_plane, k_dequantize_linear,     k_dequantize_cubic,
    k_dequantize_constant, k_dequantize_block_plane, k_select_blocks,
    k_min_max_f32,
};

}  // namespace mrc::simd::MRC_SIMD_NS
