#pragma once

// Scalar reference implementations of the predict+quantize row kernels
// ("compressors/simd_kernels.h"). These are exact transcriptions of the
// loops the codecs used before vectorization — every cast, every operation
// order — and serve three masters: the always-available scalar ISA, the
// sub-4-element tails of the SIMD kernels, and the oracle side of the
// bit-identity tests. Any change here is a frozen-format change.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/aligned.h"
#include "common/require.h"
#include "compressors/simd_kernels.h"

namespace mrc::simd::detail {

/// Quantizer constants hoisted out of the row loops. All products here are
/// exact or match the scalar expressions they replace: 2.0 * eb is an exact
/// power-of-two scale, so range == 2.0 * eb * radius and the per-element
/// diff / (2.0 * eb) see bit-identical operands.
struct QP {
  double eb;
  double two_eb;    ///< 2.0 * eb (exact)
  double range;     ///< 2.0 * eb * radius, the outlier threshold
  double radius_d;  ///< (double)radius
  std::uint32_t radius;
};

inline QP make_qp(double eb, std::uint32_t radius) {
  return {eb, 2.0 * eb, 2.0 * eb * static_cast<double>(radius),
          static_cast<double>(radius), radius};
}

/// LinearQuantizer::encode, verbatim (compressors/quantizer.h): quantize one
/// value against its prediction, writing recon and returning the code;
/// unquantizable values escape to `outliers` with code 0.
template <typename OutVec>
inline std::uint32_t quantize_one(float orig, double pred, const QP& p, float& recon,
                                  OutVec& outliers) {
  const double diff = static_cast<double>(orig) - pred;
  if (std::abs(diff) < p.range) {
    const long long q = std::llround(diff / p.two_eb);
    if (std::llabs(q) < static_cast<long long>(p.radius)) {
      const float cand = static_cast<float>(pred + p.two_eb * static_cast<double>(q));
      if (std::abs(static_cast<double>(cand) - static_cast<double>(orig)) <= p.eb) {
        recon = cand;
        return static_cast<std::uint32_t>(q + p.radius);
      }
    }
  }
  outliers.push_back(orig);
  recon = orig;
  return 0;
}

/// LinearQuantizer::decode, verbatim.
inline float dequantize_one(std::uint32_t code, double pred, const QP& p,
                            std::span<const float> outliers, std::size_t& pos) {
  if (code == 0) {
    if (pos >= outliers.size()) throw CodecError("quantizer: outlier underrun");
    return outliers[pos++];
  }
  const auto q = static_cast<std::int64_t>(code) - static_cast<std::int64_t>(p.radius);
  return static_cast<float>(pred + p.two_eb * static_cast<double>(q));
}

// Row-uniform predictions, matching the codec expressions exactly.
// Linear adds the two float neighbours in FLOAT precision first (that is
// what `0.5 * (line[a] + line[b])` does with float operands) — the SIMD
// kernels must do the same (addps, then convert, then * 0.5).
inline double pred_linear(float lo, float hi) { return 0.5 * (lo + hi); }
inline double pred_cubic(float a, float b, float c, float d) {
  return (-static_cast<double>(a) + 9.0 * static_cast<double>(b) +
          9.0 * static_cast<double>(c) - static_cast<double>(d)) /
         16.0;
}
inline double pred_constant(float src) { return static_cast<double>(src); }
inline double pred_plane(double m, double gx, double di, double aj, double ak) {
  return ((m + gx * di) + aj) + ak;
}

// Scalar row kernels (also the tails of the vector ones).

inline void s_quantize_linear(const float* orig, const float* lo, const float* hi,
                              std::size_t n, double eb, std::uint32_t radius,
                              std::uint32_t* codes, float* recon,
                              AlignedVec<float>& outliers, std::size_t i0 = 0) {
  const QP p = make_qp(eb, radius);
  for (std::size_t i = i0; i < n; ++i)
    codes[i] = quantize_one(orig[i], pred_linear(lo[i], hi[i]), p, recon[i], outliers);
}

inline void s_quantize_cubic(const float* orig, const float* a, const float* b,
                             const float* c, const float* d, std::size_t n, double eb,
                             std::uint32_t radius, std::uint32_t* codes, float* recon,
                             AlignedVec<float>& outliers, std::size_t i0 = 0) {
  const QP p = make_qp(eb, radius);
  for (std::size_t i = i0; i < n; ++i)
    codes[i] =
        quantize_one(orig[i], pred_cubic(a[i], b[i], c[i], d[i]), p, recon[i], outliers);
}

inline void s_quantize_constant(const float* orig, const float* src, std::size_t n,
                                double eb, std::uint32_t radius, std::uint32_t* codes,
                                float* recon, AlignedVec<float>& outliers,
                                std::size_t i0 = 0) {
  const QP p = make_qp(eb, radius);
  for (std::size_t i = i0; i < n; ++i)
    codes[i] = quantize_one(orig[i], pred_constant(src[i]), p, recon[i], outliers);
}

inline void s_quantize_run(const float* orig, const double* pred, std::size_t n,
                           double eb, std::uint32_t radius, std::uint32_t* codes,
                           float* recon, AlignedVec<float>& outliers, std::size_t i0 = 0) {
  const QP p = make_qp(eb, radius);
  for (std::size_t i = i0; i < n; ++i)
    codes[i] = quantize_one(orig[i], pred[i], p, recon[i], outliers);
}

inline void s_dequantize_linear(const std::uint32_t* codes, const float* lo,
                                const float* hi, std::size_t n, double eb,
                                std::uint32_t radius, float* recon,
                                std::span<const float> outliers, std::size_t& pos,
                                std::size_t i0 = 0) {
  const QP p = make_qp(eb, radius);
  for (std::size_t i = i0; i < n; ++i)
    recon[i] = dequantize_one(codes[i], pred_linear(lo[i], hi[i]), p, outliers, pos);
}

inline void s_dequantize_cubic(const std::uint32_t* codes, const float* a,
                               const float* b, const float* c, const float* d,
                               std::size_t n, double eb, std::uint32_t radius,
                               float* recon, std::span<const float> outliers,
                               std::size_t& pos, std::size_t i0 = 0) {
  const QP p = make_qp(eb, radius);
  for (std::size_t i = i0; i < n; ++i)
    recon[i] =
        dequantize_one(codes[i], pred_cubic(a[i], b[i], c[i], d[i]), p, outliers, pos);
}

inline void s_dequantize_constant(const std::uint32_t* codes, const float* src,
                                  std::size_t n, double eb, std::uint32_t radius,
                                  float* recon, std::span<const float> outliers,
                                  std::size_t& pos, std::size_t i0 = 0) {
  const QP p = make_qp(eb, radius);
  for (std::size_t i = i0; i < n; ++i)
    recon[i] = dequantize_one(codes[i], pred_constant(src[i]), p, outliers, pos);
}

inline void s_dequantize_run(const std::uint32_t* codes, const double* pred,
                             std::size_t n, double eb, std::uint32_t radius, float* recon,
                             std::span<const float> outliers, std::size_t& pos,
                             std::size_t i0 = 0) {
  const QP p = make_qp(eb, radius);
  for (std::size_t i = i0; i < n; ++i)
    recon[i] = dequantize_one(codes[i], pred[i], p, outliers, pos);
}

/// Regression block, row by row: every (j, k) row quantized against
/// pred_plane(m, gx, i - ci, aj, ak) with aj = gy*(j-cj), ak = gz*(k-ck) —
/// the frozen definition the vector block kernels must reproduce.
inline void s_quantize_block_plane(const PlaneBlock& b, const float* orig, double eb,
                                   std::uint32_t radius, std::uint32_t* codes,
                                   float* recon, AlignedVec<float>& outliers) {
  const QP p = make_qp(eb, radius);
  const Plane& pl = b.plane;
  const double ci = (b.ex - 1) / 2.0, cj = (b.ey - 1) / 2.0, ck = (b.ez - 1) / 2.0;
  for (std::int64_t k = 0; k < b.ez; ++k)
    for (std::int64_t j = 0; j < b.ey; ++j) {
      const double aj = pl.gy * (static_cast<double>(j) - cj);
      const double ak = pl.gz * (static_cast<double>(k) - ck);
      const std::int64_t off = j * b.sy + k * b.sz;
      for (std::int64_t i = 0; i < b.ex; ++i) {
        const double pred = pred_plane(pl.m, pl.gx, static_cast<double>(i) - ci, aj, ak);
        *codes++ = quantize_one(orig[off + i], pred, p, recon[off + i], outliers);
      }
    }
}

inline void s_dequantize_block_plane(const PlaneBlock& b, const std::uint32_t* codes,
                                     double eb, std::uint32_t radius, float* recon,
                                     std::span<const float> outliers, std::size_t& pos) {
  const QP p = make_qp(eb, radius);
  const Plane& pl = b.plane;
  const double ci = (b.ex - 1) / 2.0, cj = (b.ey - 1) / 2.0, ck = (b.ez - 1) / 2.0;
  for (std::int64_t k = 0; k < b.ez; ++k)
    for (std::int64_t j = 0; j < b.ey; ++j) {
      const double aj = pl.gy * (static_cast<double>(j) - cj);
      const double ak = pl.gz * (static_cast<double>(k) - ck);
      float* row = recon + j * b.sy + k * b.sz;
      for (std::int64_t i = 0; i < b.ex; ++i) {
        const double pred = pred_plane(pl.m, pl.gx, static_cast<double>(i) - ci, aj, ak);
        row[i] = dequantize_one(*codes++, pred, p, outliers, pos);
      }
    }
}

// 3-D Lorenzo stencil of the SZ2-class codec, over an nx*ny*(any) field.

/// Checked form: neighbours at x < 0, y < 0 or z < zmin (the chunk floor)
/// contribute zero, so chunks stay independent.
inline double lorenzo_pred(const float* data, std::int64_t nx, std::int64_t ny,
                           std::int64_t x, std::int64_t y, std::int64_t z,
                           std::int64_t zmin) {
  auto v = [&](std::int64_t dx, std::int64_t dy, std::int64_t dz) -> double {
    const std::int64_t xx = x - dx, yy = y - dy, zz = z - dz;
    if (xx < 0 || yy < 0 || zz < zmin) return 0.0;
    return data[xx + nx * (yy + ny * zz)];
  };
  return v(1, 0, 0) + v(0, 1, 0) + v(0, 0, 1) - v(1, 1, 0) - v(1, 0, 1) - v(0, 1, 1) +
         v(1, 1, 1);
}

/// Branch-free interior form of lorenzo_pred: valid when x >= 1, y >= 1 and
/// z >= zmin+1, where all seven stencil neighbours exist and the 21 bounds
/// checks collapse to straight loads. Same terms, same left-to-right
/// summation order — bit-identical to the checked form.
inline double lorenzo_pred_fast(const float* data, std::int64_t idx, std::int64_t sy,
                                std::int64_t sz) {
  const double v100 = data[idx - 1];
  const double v010 = data[idx - sy];
  const double v001 = data[idx - sz];
  const double v110 = data[idx - 1 - sy];
  const double v101 = data[idx - 1 - sz];
  const double v011 = data[idx - sy - sz];
  const double v111 = data[idx - 1 - sy - sz];
  return v100 + v010 + v001 - v110 - v101 - v011 + v111;
}

/// Centres and normalisers of an ex*ey*ez block's least-squares plane:
/// m = sum / n and g* = s* / v*, with v* = sum over the block of (i* - c*)^2
/// (a zero v* — extent 1 — means a zero gradient).
struct FitNorms {
  double ci, cj, ck, n, vx, vy, vz;
};
inline FitNorms fit_norms(std::int64_t ex, std::int64_t ey, std::int64_t ez) {
  auto var1d = [](std::int64_t e) { return static_cast<double>(e) * (e * e - 1) / 12.0; };
  return {(ex - 1) / 2.0,
          (ey - 1) / 2.0,
          (ez - 1) / 2.0,
          static_cast<double>(ex * ey * ez),
          var1d(ex) * ey * ez,
          var1d(ey) * ex * ez,
          var1d(ez) * ex * ey};
}

/// Predictor selection of one block at (x0, y0, z0): the plane fit sums
/// (sum v, sum v*(i-ci), sum v*(j-cj), sum v*(k-ck)), then the two error
/// sums, every sum in k, j, i order. The Lorenzo estimate uses the interior
/// form off the x = 0, y = 0 and z = zmin faces.
inline BlockFit s_select_block(const float* orig, std::int64_t nx, std::int64_t ny,
                               std::int64_t zmin, const BlockOrigin& o, std::int64_t ex,
                               std::int64_t ey, std::int64_t ez) {
  const std::int64_t sy = nx, sz = nx * ny;
  const FitNorms fn = fit_norms(ex, ey, ez);
  const double ci = fn.ci, cj = fn.cj, ck = fn.ck;
  double sum = 0, sx = 0, sj = 0, sk = 0;
  for (std::int64_t k = 0; k < ez; ++k)
    for (std::int64_t j = 0; j < ey; ++j) {
      const float* row = orig + o.x + sy * (o.y + j) + sz * (o.z + k);
      for (std::int64_t i = 0; i < ex; ++i) {
        const double v = row[i];
        sum += v;
        sx += v * (i - ci);
        sj += v * (j - cj);
        sk += v * (k - ck);
      }
    }
  BlockFit fit;
  Plane& p = fit.plane;
  p.m = sum / fn.n;
  p.gx = fn.vx > 0 ? sx / fn.vx : 0.0;
  p.gy = fn.vy > 0 ? sj / fn.vy : 0.0;
  p.gz = fn.vz > 0 ? sk / fn.vz : 0.0;

  double err_reg = 0, err_lor = 0;
  for (std::int64_t k = 0; k < ez; ++k)
    for (std::int64_t j = 0; j < ey; ++j) {
      const std::int64_t y = o.y + j, z = o.z + k;
      const bool interior_row = y >= 1 && z >= zmin + 1;
      for (std::int64_t i = 0; i < ex; ++i) {
        const std::int64_t x = o.x + i, idx = x + sy * y + sz * z;
        const double v = orig[idx];
        const double pr = p.m + p.gx * (i - ci) + p.gy * (j - cj) + p.gz * (k - ck);
        err_reg += std::abs(v - pr);
        const double lor = interior_row && x >= 1 ? lorenzo_pred_fast(orig, idx, sy, sz)
                                                  : lorenzo_pred(orig, nx, ny, x, y, z, zmin);
        err_lor += std::abs(v - lor);
      }
    }
  fit.err_reg = err_reg;
  fit.err_lor = err_lor;
  return fit;
}

inline void s_select_blocks(const float* orig, std::int64_t nx, std::int64_t ny,
                            std::int64_t zmin, const BlockOrigin* blocks, std::size_t n,
                            std::int64_t ex, std::int64_t ey, std::int64_t ez,
                            BlockFit* fits) {
  for (std::size_t b = 0; b < n; ++b)
    fits[b] = s_select_block(orig, nx, ny, zmin, blocks[b], ex, ey, ez);
}

/// Folds p[i..n) into the running lo/hi with the compare-select min/max
/// (v < lo ? v : lo, the x86 minss/maxss semantics); returns false when an
/// element is NaN. Four independent accumulators break the compare chain.
inline bool s_min_max_f32(const float* p, std::size_t n, float& lo, float& hi,
                          std::size_t i = 0) {
  float l[4] = {lo, lo, lo, lo};
  float h[4] = {hi, hi, hi, hi};
  bool nan = false;
  for (; i + 4 <= n; i += 4)
    for (std::size_t k = 0; k < 4; ++k) {
      const float v = p[i + k];
      l[k] = v < l[k] ? v : l[k];
      h[k] = h[k] < v ? v : h[k];
      nan |= v != v;
    }
  for (; i < n; ++i) {
    const float v = p[i];
    l[0] = v < l[0] ? v : l[0];
    h[0] = h[0] < v ? v : h[0];
    nan |= v != v;
  }
  for (std::size_t k = 1; k < 4; ++k) {
    l[0] = l[k] < l[0] ? l[k] : l[0];
    h[0] = h[0] < h[k] ? h[k] : h[0];
  }
  lo = l[0];
  hi = h[0];
  return !nan;
}

}  // namespace mrc::simd::detail
