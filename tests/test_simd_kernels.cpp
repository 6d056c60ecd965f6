#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compressors/compressor.h"
#include "compressors/interp/interp_compressor.h"
#include "compressors/lorenzo/lorenzo_compressor.h"
#include "compressors/quantizer.h"
#include "compressors/simd_kernels.h"
#include "test_util.h"

namespace mrc::simd {
namespace {

/// Pins dispatch to one ISA for a scope, restoring best on exit — tests must
/// not leak a forced-scalar dispatch into later suites.
class IsaScope {
 public:
  explicit IsaScope(Isa isa) { applied_ = force_isa(isa); }
  ~IsaScope() { force_isa(best_isa()); }
  [[nodiscard]] Isa applied() const { return applied_; }

 private:
  Isa applied_;
};

/// The ISAs this build + CPU can actually run (scalar always; sse2/avx2 when
/// force_isa does not clamp them away).
std::vector<Isa> available_isas() {
  std::vector<Isa> out{Isa::scalar};
  for (const Isa isa : {Isa::sse2, Isa::avx2}) {
    const IsaScope s(isa);
    if (s.applied() == isa) out.push_back(isa);
  }
  return out;
}

/// Row inputs that bias every interesting quantizer branch: smooth values
/// (deep zero-run bins), residuals engineered to land exactly on .5 bin
/// boundaries (llround tie behavior), and spikes far outside the range
/// check (outliers).
struct RowData {
  std::vector<float> orig, a, b, c, d;
};

RowData make_row(std::size_t n, double eb, std::uint64_t seed) {
  Rng rng(seed);
  RowData r;
  r.orig.resize(n);
  r.a.resize(n);
  r.b.resize(n);
  r.c.resize(n);
  r.d.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double base = 10.0 * std::sin(0.21 * static_cast<double>(i));
    r.a[i] = static_cast<float>(base + 0.3 * rng.normal());
    r.b[i] = static_cast<float>(base + 0.3 * rng.normal());
    r.c[i] = static_cast<float>(base + 0.3 * rng.normal());
    r.d[i] = static_cast<float>(base + 0.3 * rng.normal());
    const double u = rng.uniform();
    if (u < 0.45) {
      r.orig[i] = static_cast<float>(base + eb * rng.uniform(-0.9, 0.9));
    } else if (u < 0.70) {
      // Residual pinned near a half-bin boundary: q*2eb + eb is the exact
      // tie point of llround(diff / 2eb). Both signs, even and odd q.
      const auto q = static_cast<double>(rng.uniform_index(7)) - 3.0;
      r.orig[i] = static_cast<float>(base + 2.0 * eb * q + eb);
    } else if (u < 0.95) {
      r.orig[i] = static_cast<float>(base + eb * rng.uniform(-40.0, 40.0));
    } else {
      r.orig[i] = static_cast<float>(base + 1e6 * (rng.uniform() < 0.5 ? -1.0 : 1.0));
    }
  }
  return r;
}

struct KernelOut {
  std::vector<std::uint32_t> codes;
  std::vector<float> recon;
  AlignedVec<float> outliers;
};

/// `plane` is a regression block of one row: pred_i = (m + gx*(i-ci)) + ±0 + ±0.
enum class Shape { linear, cubic, constant, plane };

PlaneBlock row_block(std::size_t n) {
  return {0, 0, static_cast<std::int64_t>(n), 1, 1, {3.25, 0.125, -0.75, 2.5}};
}

KernelOut run_quantize(Shape shape, const RowData& r, double eb,
                       std::uint32_t radius) {
  const std::size_t n = r.orig.size();
  KernelOut out;
  out.codes.assign(n, 0xdeadbeefu);
  out.recon.assign(n, -1.0f);
  switch (shape) {
    case Shape::linear:
      quantize_row_linear(r.orig.data(), r.b.data(), r.c.data(), n, eb, radius,
                          out.codes.data(), out.recon.data(), out.outliers);
      break;
    case Shape::cubic:
      quantize_row_cubic(r.orig.data(), r.a.data(), r.b.data(), r.c.data(),
                         r.d.data(), n, eb, radius, out.codes.data(),
                         out.recon.data(), out.outliers);
      break;
    case Shape::constant:
      quantize_row_constant(r.orig.data(), r.b.data(), n, eb, radius,
                            out.codes.data(), out.recon.data(), out.outliers);
      break;
    case Shape::plane: {
      BlockScratch scratch;
      quantize_block_plane(row_block(n), r.orig.data(), eb, radius, out.codes.data(),
                           out.recon.data(), out.outliers, scratch);
      break;
    }
  }
  return out;
}

std::vector<float> run_dequantize(Shape shape, const KernelOut& enc,
                                  const RowData& r, double eb,
                                  std::uint32_t radius) {
  const std::size_t n = enc.codes.size();
  std::vector<float> recon(n, -2.0f);
  const std::span<const float> osp(enc.outliers.data(), enc.outliers.size());
  std::size_t pos = 0;
  switch (shape) {
    case Shape::linear:
      dequantize_row_linear(enc.codes.data(), r.b.data(), r.c.data(), n, eb,
                            radius, recon.data(), osp, pos);
      break;
    case Shape::cubic:
      dequantize_row_cubic(enc.codes.data(), r.a.data(), r.b.data(), r.c.data(),
                           r.d.data(), n, eb, radius, recon.data(), osp, pos);
      break;
    case Shape::constant:
      dequantize_row_constant(enc.codes.data(), r.b.data(), n, eb, radius,
                              recon.data(), osp, pos);
      break;
    case Shape::plane: {
      BlockScratch scratch;
      dequantize_block_plane(row_block(n), enc.codes.data(), eb, radius, recon.data(),
                             osp, pos, scratch);
      break;
    }
  }
  EXPECT_EQ(pos, enc.outliers.size()) << "dequantize left outliers unconsumed";
  return recon;
}

/// Bit-level float comparison: -0.0f vs 0.0f or NaN payload drift in recon
/// would silently break the frozen format, so == is not enough.
bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  if (x.size() != y.size()) return false;
  return std::equal(x.begin(), x.end(), y.begin(), [](float p, float q) {
    std::uint32_t pb = 0, qb = 0;
    std::memcpy(&pb, &p, 4);
    std::memcpy(&qb, &q, 4);
    return pb == qb;
  });
}

bool same_bits(const AlignedVec<float>& x, const AlignedVec<float>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    std::uint32_t pb = 0, qb = 0;
    std::memcpy(&pb, &x[i], 4);
    std::memcpy(&qb, &y[i], 4);
    if (pb != qb) return false;
  }
  return true;
}

TEST(SimdKernels, DispatchReportsAnIsa) {
  EXPECT_GE(static_cast<int>(best_isa()), static_cast<int>(Isa::scalar));
  EXPECT_EQ(active_isa(), best_isa());
  EXPECT_STREQ(isa_name(Isa::scalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::sse2), "sse2");
  EXPECT_STREQ(isa_name(Isa::avx2), "avx2");
  // Forcing above best clamps rather than dispatching to a missing table.
  const Isa got = force_isa(Isa::avx2);
  EXPECT_LE(static_cast<int>(got), static_cast<int>(best_isa()));
  force_isa(best_isa());
}

TEST(SimdKernels, EveryIsaBitIdenticalToScalar) {
  const auto isas = available_isas();
  // Odd lengths exercise the vector tail; 1..3 are all-tail rows.
  const std::size_t lengths[] = {1, 2, 3, 4, 5, 7, 8, 13, 31, 64, 257};
  const double ebs[] = {1e-3, 0.25};
  const std::uint32_t radii[] = {512u, 4u};
  for (const auto shape :
       {Shape::linear, Shape::cubic, Shape::constant, Shape::plane}) {
    for (const std::size_t n : lengths) {
      for (const double eb : ebs) {
        for (const std::uint32_t radius : radii) {
          const RowData row = make_row(n, eb, 1000 + n);
          KernelOut ref;
          {
            const IsaScope s(Isa::scalar);
            ref = run_quantize(shape, row, eb, radius);
          }
          std::vector<float> ref_dec;
          {
            const IsaScope s(Isa::scalar);
            ref_dec = run_dequantize(shape, ref, row, eb, radius);
          }
          ASSERT_TRUE(same_bits(ref_dec, ref.recon))
              << "scalar decode does not invert scalar encode";
          for (const Isa isa : isas) {
            const IsaScope s(isa);
            const KernelOut got = run_quantize(shape, row, eb, radius);
            EXPECT_EQ(got.codes, ref.codes)
                << isa_name(isa) << " codes diverge (shape "
                << static_cast<int>(shape) << ", n=" << n << ")";
            EXPECT_TRUE(same_bits(got.recon, ref.recon))
                << isa_name(isa) << " recon diverges (n=" << n << ")";
            EXPECT_TRUE(same_bits(got.outliers, ref.outliers))
                << isa_name(isa) << " outliers diverge (n=" << n << ")";
            const auto dec = run_dequantize(shape, ref, row, eb, radius);
            EXPECT_TRUE(same_bits(dec, ref_dec))
                << isa_name(isa) << " dequantize diverges (n=" << n << ")";
          }
        }
      }
    }
  }
}

TEST(SimdKernels, HugeRadiusFallsBackToScalarResults) {
  // radius >= 2^30 codes cannot ride the int32 conversion; the kernels must
  // fall back and still match scalar exactly.
  const std::uint32_t radius = (1u << 30) + 5u;
  const double eb = 1e-3;
  const RowData row = make_row(37, eb, 7);
  KernelOut ref;
  {
    const IsaScope s(Isa::scalar);
    ref = run_quantize(Shape::linear, row, eb, radius);
  }
  for (const Isa isa : available_isas()) {
    const IsaScope s(isa);
    const KernelOut got = run_quantize(Shape::linear, row, eb, radius);
    EXPECT_EQ(got.codes, ref.codes) << isa_name(isa);
    EXPECT_TRUE(same_bits(got.recon, ref.recon)) << isa_name(isa);
  }
}

TEST(SimdKernels, DequantizeOutlierUnderrunThrows) {
  // A code stream holding outlier escapes but an empty outlier list must
  // throw on every ISA, never read past the span.
  const std::size_t n = 9;
  const std::vector<std::uint32_t> codes(n, 0u);
  const std::vector<float> src(n, 1.0f);
  for (const Isa isa : available_isas()) {
    const IsaScope s(isa);
    std::vector<float> recon(n);
    std::size_t pos = 0;
    EXPECT_THROW(dequantize_row_constant(codes.data(), src.data(), n, 1e-3, 512,
                                         recon.data(), {}, pos),
                 CodecError)
        << isa_name(isa);
  }
}

/// Whole-codec bit-identity: the same field must compress to the same bytes
/// under every ISA, across extents that stress the row carving (degenerate
/// 1xNxM slabs, prime extents, and a square volume).
class SimdCodecBitIdentity : public ::testing::TestWithParam<Dim3> {};

TEST_P(SimdCodecBitIdentity, InterpStreamsMatchScalar) {
  const Dim3 d = GetParam();
  const FieldF f = test::noise_field(d, 5.0, 42);
  const double eb = 1e-2;
  const InterpCompressor codec;
  Bytes ref;
  {
    const IsaScope s(Isa::scalar);
    ref = codec.compress(f, eb);
  }
  for (const Isa isa : available_isas()) {
    const IsaScope s(isa);
    EXPECT_EQ(codec.compress(f, eb), ref) << isa_name(isa) << " " << d.str();
    const FieldF back = codec.decompress(ref);
    EXPECT_LE(test::max_abs_err(f, back), eb);
  }
}

TEST_P(SimdCodecBitIdentity, LorenzoStreamsMatchScalar) {
  // The frozen-format Lorenzo configurations (default, 4^3 blocks, three
  // z-slab chunks, no regression) on a smooth field and on one that mixes
  // regression and Lorenzo blocks.
  const Dim3 d = GetParam();
  const double eb = 1e-3;
  std::vector<LorenzoConfig> cfgs(4);
  cfgs[1].block_size = 4;
  cfgs[2].chunks = 3;
  cfgs[3].use_regression = false;
  for (const FieldF& f : {test::smooth_field(d), test::mixed_block_field(d)})
    for (const LorenzoConfig& cfg : cfgs) {
      const LorenzoCompressor codec(cfg);
      const std::string what = d.str() + " bs=" + std::to_string(cfg.block_size) +
                               " chunks=" + std::to_string(cfg.chunks) +
                               " reg=" + std::to_string(cfg.use_regression);
      Bytes ref;
      {
        const IsaScope s(Isa::scalar);
        ref = codec.compress(f, eb);
      }
      for (const Isa isa : available_isas()) {
        const IsaScope s(isa);
        EXPECT_EQ(codec.compress(f, eb), ref) << isa_name(isa) << " " << what;
        const FieldF back = codec.decompress(ref);
        EXPECT_LE(test::max_abs_err(f, back), eb) << isa_name(isa) << " " << what;
      }
    }
}

INSTANTIATE_TEST_SUITE_P(OddExtents, SimdCodecBitIdentity,
                         ::testing::Values(Dim3{1, 37, 53}, Dim3{53, 1, 37},
                                           Dim3{37, 53, 1}, Dim3{31, 29, 23},
                                           Dim3{2, 3, 5}, Dim3{32, 32, 32}));

// ---------------------------------------------------------------------------
// Block kernels of the Lorenzo/regression codec: every ISA against the
// codec's frozen scalar formulation, lane by lane.
// ---------------------------------------------------------------------------

/// A field for the block kernels: smooth background, values pinned to exact
/// quantizer ties against `plane`-shaped predictions (eb 0.25 makes the
/// arithmetic exact), and +-1e6 spikes, two of them straddling every
/// row boundary of the block at the origin (last sample of a row, first
/// of the next).
FieldF block_field(Dim3 d, std::uint64_t seed) {
  Rng rng(seed);
  FieldF f(d);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x) {
        const double u = rng.uniform();
        const double base = 3.0 + 0.5 * static_cast<double>(x) - 0.25 * static_cast<double>(y) +
                            0.125 * static_cast<double>(z);
        double v = base + 0.1 * rng.normal();
        if (u < 0.3) v = base + 0.5 * static_cast<double>(rng.uniform_index(7)) - 1.25;
        if (u > 0.95) v = rng.uniform() < 0.5 ? -1e6 : 1e6;
        f.at(x, y, z) = static_cast<float>(v);
      }
  return f;
}

/// The regression block as the codec has always quantized it: row by row,
/// LinearQuantizer::encode against ((m + gx*(i-ci)) + aj) + ak.
struct BlockRef {
  std::vector<std::uint32_t> codes;
  std::vector<float> recon;  // the block, x-fastest
  AlignedVec<float> outliers;
};

BlockRef reference_block(const PlaneBlock& b, const float* orig, double eb,
                         std::uint32_t radius) {
  const LinearQuantizer q{eb, radius};
  const Plane& p = b.plane;
  const double ci = (b.ex - 1) / 2.0, cj = (b.ey - 1) / 2.0, ck = (b.ez - 1) / 2.0;
  BlockRef r;
  for (index_t k = 0; k < b.ez; ++k)
    for (index_t j = 0; j < b.ey; ++j) {
      const double aj = p.gy * (static_cast<double>(j) - cj);
      const double ak = p.gz * (static_cast<double>(k) - ck);
      for (index_t i = 0; i < b.ex; ++i) {
        const double pred = ((p.m + p.gx * (static_cast<double>(i) - ci)) + aj) + ak;
        float rec = 0.0f;
        r.codes.push_back(q.encode(orig[j * b.sy + k * b.sz + i], pred, rec, r.outliers));
        r.recon.push_back(rec);
      }
    }
  return r;
}

std::vector<float> block_values(const float* base, const PlaneBlock& b) {
  std::vector<float> out;
  for (index_t k = 0; k < b.ez; ++k)
    for (index_t j = 0; j < b.ey; ++j)
      for (index_t i = 0; i < b.ex; ++i) out.push_back(base[j * b.sy + k * b.sz + i]);
  return out;
}

TEST(SimdBlockKernels, QuantizeBlockMatchesRowReferenceEveryIsa) {
  // Extents 1..6 per axis (so runs of 1..3 samples and partial edge blocks),
  // two planes, two radii, bounds with exact ties (0.25) and without.
  const Dim3 d{9, 8, 7};
  const FieldF f = block_field(d, 31);
  const Plane planes[] = {{3.0, 0.5, -0.25, 0.125}, {-2.75, 0.0625, 1.5, -0.5}};
  for (const double eb : {0.25, 1e-3})
    for (const std::uint32_t radius : {512u, 4u})
      for (const Plane& pl : planes)
        for (index_t ez = 1; ez <= 6; ++ez)
          for (index_t ey = 1; ey <= 6; ++ey)
            for (index_t ex = 1; ex <= 6; ++ex) {
              const PlaneBlock b{d.nx, d.nx * d.ny, ex, ey, ez, pl};
              const index_t off = d.index(1, 1, 1);
              const BlockRef ref = reference_block(b, f.data() + off, eb, radius);
              for (const Isa isa : available_isas()) {
                const IsaScope s(isa);
                FieldF rec(d);
                std::vector<std::uint32_t> codes(static_cast<std::size_t>(ex * ey * ez));
                AlignedVec<float> outliers;
                BlockScratch scratch;
                quantize_block_plane(b, f.data() + off, eb, radius, codes.data(),
                                     rec.data() + off, outliers, scratch);
                const std::string what = std::string(isa_name(isa)) + " " +
                                         std::to_string(ex) + "x" + std::to_string(ey) +
                                         "x" + std::to_string(ez);
                EXPECT_EQ(codes, ref.codes) << what;
                EXPECT_TRUE(same_bits(block_values(rec.data() + off, b), ref.recon)) << what;
                EXPECT_TRUE(same_bits(outliers, ref.outliers)) << what;

                // Decode writes the same reconstruction and eats every outlier.
                FieldF back(d);
                std::size_t pos = 0;
                dequantize_block_plane(b, ref.codes.data(), eb, radius, back.data() + off,
                                       {ref.outliers.data(), ref.outliers.size()}, pos,
                                       scratch);
                EXPECT_EQ(pos, ref.outliers.size()) << what;
                EXPECT_TRUE(same_bits(block_values(back.data() + off, b), ref.recon)) << what;
              }
            }
}

TEST(SimdBlockKernels, OutliersStraddlingRowsKeepPushOrder) {
  // Spikes at the end of every row and the start of the next, so each
  // vector step of the gathered run holds escapes from two rows.
  const Dim3 d{6, 6, 6};
  FieldF f(d);
  for (index_t z = 0; z < 6; ++z)
    for (index_t y = 0; y < 6; ++y)
      for (index_t x = 0; x < 6; ++x) {
        const bool spike = x == 5 || x == 0 || (x + y + z) % 7 == 0;
        f.at(x, y, z) = spike ? static_cast<float>(1000 + x + 10 * y + 100 * z) : 1.0f;
      }
  const PlaneBlock b{6, 36, 6, 6, 6, {1.0, 0.0, 0.0, 0.0}};
  const BlockRef ref = reference_block(b, f.data(), 1e-3, 512);
  ASSERT_GT(ref.outliers.size(), 72u);
  for (const Isa isa : available_isas()) {
    const IsaScope s(isa);
    std::vector<std::uint32_t> codes(216);
    std::vector<float> rec(216);
    AlignedVec<float> outliers;
    BlockScratch scratch;
    quantize_block_plane(b, f.data(), 1e-3, 512, codes.data(), rec.data(), outliers, scratch);
    EXPECT_EQ(codes, ref.codes) << isa_name(isa);
    EXPECT_TRUE(same_bits(outliers, ref.outliers)) << isa_name(isa);
  }
}

TEST(SimdBlockKernels, HalfBinTiesRoundAwayFromZero) {
  // Every residual an exact half bin: x = q + 1/2 for q in [-4, 4], which
  // llround takes away from zero (-3.5 -> -4, 3.5 -> 4); -0.0 and -0.05
  // against a plane that predicts -0.0 in a corner of the block, where the
  // zero code's reconstruction -0.0 + 2eb*q must see q = +0, not -0.
  const PlaneBlock b{6, 36, 6, 6, 6, {1.0, 0.0, 0.0, 0.0}};
  std::vector<float> orig(216);
  for (std::size_t p = 0; p < orig.size(); ++p)
    orig[p] = static_cast<float>(1.0 + 0.25 * (2.0 * (static_cast<double>(p % 9) - 4.0) + 1.0));
  const BlockRef ref = reference_block(b, orig.data(), 0.25, 512);
  for (std::size_t p = 0; p < orig.size(); ++p) {
    const double x = static_cast<double>(p % 9) - 4.0 + 0.5;
    ASSERT_EQ(ref.codes[p], static_cast<std::uint32_t>(512 + std::llround(x))) << p;
  }
  const PlaneBlock zb{6, 36, 6, 6, 6, {-0.0, 0.0, 0.0, 0.0}};
  std::vector<float> zeros(216, -0.0f);  // and small negatives: x in (-1/2, 0)
  for (std::size_t p = 1; p < zeros.size(); p += 2) zeros[p] = -0.05f;
  const BlockRef zref = reference_block(zb, zeros.data(), 0.25, 512);
  // Residuals of +-(1/2 - 2^-54), the largest doubles below a half bin: an
  // emulation that adds exactly 1/2 before truncating rounds them to +-1.
  const double below = std::ldexp(1.0, -54);
  const PlaneBlock hb{6, 36, 6, 6, 6, {below, 0.0, 0.0, 0.0}};
  const PlaneBlock nb{6, 36, 6, 6, 6, {-below, 0.0, 0.0, 0.0}};
  const std::vector<float> halves(216, 0.5f), neg_halves(216, -0.5f);
  const BlockRef href = reference_block(hb, halves.data(), 0.5, 512);
  const BlockRef nref = reference_block(nb, neg_halves.data(), 0.5, 512);
  ASSERT_EQ(href.codes, std::vector<std::uint32_t>(216, 512u));
  ASSERT_EQ(nref.codes, std::vector<std::uint32_t>(216, 512u));
  const auto check = [](const PlaneBlock& blk, const float* in, double eb,
                        const BlockRef& r, Isa isa) {
    std::vector<std::uint32_t> codes(216);
    std::vector<float> rec(216);
    AlignedVec<float> outliers;
    BlockScratch scratch;
    quantize_block_plane(blk, in, eb, 512, codes.data(), rec.data(), outliers, scratch);
    EXPECT_EQ(codes, r.codes) << isa_name(isa);
    EXPECT_TRUE(same_bits(rec, r.recon)) << isa_name(isa);
    EXPECT_TRUE(outliers.empty()) << isa_name(isa);
  };
  for (const Isa isa : available_isas()) {
    const IsaScope s(isa);
    check(b, orig.data(), 0.25, ref, isa);
    check(zb, zeros.data(), 0.25, zref, isa);
    check(hb, halves.data(), 0.5, href, isa);
    check(nb, neg_halves.data(), 0.5, nref, isa);
  }
}

TEST(SimdBlockKernels, HugeRadiusBlockFallsBackToScalarResults) {
  const Dim3 d{7, 6, 5};
  const FieldF f = block_field(d, 8);
  const std::uint32_t radius = (1u << 30) + 5u;
  const PlaneBlock b{d.nx, d.nx * d.ny, 6, 5, 4, {3.0, 0.5, -0.25, 0.125}};
  const BlockRef ref = reference_block(b, f.data(), 1e-3, radius);
  for (const Isa isa : available_isas()) {
    const IsaScope s(isa);
    FieldF rec(d);
    std::vector<std::uint32_t> codes(120);
    AlignedVec<float> outliers;
    BlockScratch scratch;
    quantize_block_plane(b, f.data(), 1e-3, radius, codes.data(), rec.data(), outliers,
                         scratch);
    EXPECT_EQ(codes, ref.codes) << isa_name(isa);
    EXPECT_TRUE(same_bits(block_values(rec.data(), b), ref.recon)) << isa_name(isa);
  }
}

TEST(SimdBlockKernels, DequantizeBlockOutlierUnderrunThrows) {
  // Escapes past the end of the outlier list must throw on every ISA,
  // whether the list is empty or runs out partway through the block.
  const PlaneBlock b{6, 36, 6, 6, 6, {1.0, 0.0, 0.0, 0.0}};
  std::vector<std::uint32_t> codes(216, 512u);
  for (const std::size_t z : {0u, 5u, 130u, 215u}) codes[z] = 0u;
  const std::vector<float> three{1.0f, 2.0f, 3.0f};
  for (const Isa isa : available_isas()) {
    const IsaScope s(isa);
    std::vector<float> recon(216);
    BlockScratch scratch;
    std::size_t pos = 0;
    EXPECT_THROW(dequantize_block_plane(b, codes.data(), 1e-3, 512, recon.data(), {}, pos,
                                        scratch),
                 CodecError)
        << isa_name(isa);
    pos = 0;
    EXPECT_THROW(dequantize_block_plane(b, codes.data(), 1e-3, 512, recon.data(),
                                        {three.data(), three.size()}, pos, scratch),
                 CodecError)
        << isa_name(isa);
  }
}

/// Predictor selection exactly as the codec has always written it: the
/// plane fit, then both error sums with the bounds-checked Lorenzo stencil
/// on the original data.
BlockFit reference_fit(const FieldF& f, const BlockOrigin& o, index_t ex, index_t ey,
                       index_t ez, index_t zmin) {
  auto at = [&](index_t x, index_t y, index_t z) -> double {
    if (x < 0 || y < 0 || z < zmin) return 0.0;
    return f.at(x, y, z);
  };
  auto lorenzo = [&](index_t x, index_t y, index_t z) {
    return at(x - 1, y, z) + at(x, y - 1, z) + at(x, y, z - 1) - at(x - 1, y - 1, z) -
           at(x - 1, y, z - 1) - at(x, y - 1, z - 1) + at(x - 1, y - 1, z - 1);
  };
  const double ci = (ex - 1) / 2.0, cj = (ey - 1) / 2.0, ck = (ez - 1) / 2.0;
  double sum = 0, sx = 0, sy = 0, sz = 0;
  for (index_t k = 0; k < ez; ++k)
    for (index_t j = 0; j < ey; ++j)
      for (index_t i = 0; i < ex; ++i) {
        const double v = f.at(o.x + i, o.y + j, o.z + k);
        sum += v;
        sx += v * (i - ci);
        sy += v * (j - cj);
        sz += v * (k - ck);
      }
  const double n = static_cast<double>(ex * ey * ez);
  auto var1d = [](index_t e) { return static_cast<double>(e) * (e * e - 1) / 12.0; };
  const double vx = var1d(ex) * ey * ez, vy = var1d(ey) * ex * ez, vz = var1d(ez) * ex * ey;
  BlockFit fit;
  Plane& p = fit.plane;
  p.m = sum / n;
  p.gx = vx > 0 ? sx / vx : 0.0;
  p.gy = vy > 0 ? sy / vy : 0.0;
  p.gz = vz > 0 ? sz / vz : 0.0;
  double err_reg = 0, err_lor = 0;
  for (index_t k = 0; k < ez; ++k)
    for (index_t j = 0; j < ey; ++j)
      for (index_t i = 0; i < ex; ++i) {
        const double v = f.at(o.x + i, o.y + j, o.z + k);
        const double pr = p.m + p.gx * (i - ci) + p.gy * (j - cj) + p.gz * (k - ck);
        err_reg += std::abs(v - pr);
        err_lor += std::abs(v - lorenzo(o.x + i, o.y + j, o.z + k));
      }
  fit.err_reg = err_reg;
  fit.err_lor = err_lor;
  return fit;
}

bool same_fit(const BlockFit& a, const BlockFit& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.plane.m) == bits(b.plane.m) && bits(a.plane.gx) == bits(b.plane.gx) &&
         bits(a.plane.gy) == bits(b.plane.gy) && bits(a.plane.gz) == bits(b.plane.gz) &&
         bits(a.err_reg) == bits(b.err_reg) && bits(a.err_lor) == bits(b.err_lor);
}

/// Log-uniform magnitudes over 20 decades, random signs: sums of these
/// round differently in any other order, so a reassociated sum shows.
FieldF wide_range_field(Dim3 d, std::uint64_t seed) {
  Rng rng(seed);
  FieldF f(d);
  for (index_t i = 0; i < d.size(); ++i)
    f[i] = static_cast<float>((rng.uniform() < 0.5 ? -1.0 : 1.0) *
                              std::pow(10.0, rng.uniform(-10.0, 10.0)));
  return f;
}

TEST(SimdBlockKernels, SelectBlocksMatchesReferenceEveryIsa) {
  // Blocks on the x = 0, y = 0 and z = zmin faces and inside, flush with the
  // far x edge (where a whole-vector row read would overrun), at chunk
  // floors 0 and 3, in groups that fill 1..4 lanes of the last pass. The
  // planes and both error sums must match bit for bit.
  const Dim3 d{23, 14, 11};
  int regression = 0, lorenzo = 0;
  for (const FieldF& f :
       {test::mixed_block_field(d), block_field(d, 77), wide_range_field(d, 78)})
    for (const index_t zmin : {0, 3})
      for (index_t ez = 1; ez <= 6; ++ez)
        for (index_t ey = 1; ey <= 6; ++ey)
          for (index_t ex = 1; ex <= 6; ++ex) {
            if (ex * ey * ez < 8) continue;
            std::vector<BlockOrigin> blocks;
            for (const index_t z : {zmin, zmin + 1, d.nz - ez})
              for (const index_t y : {index_t{0}, index_t{1}, d.ny - ey})
                for (const index_t x : {index_t{0}, index_t{1}, index_t{7}, d.nx - ex - 1,
                                        d.nx - ex})
                  blocks.push_back({x, y, z});
            std::vector<BlockFit> ref;
            for (const BlockOrigin& o : blocks) {
              ref.push_back(reference_fit(f, o, ex, ey, ez, zmin));
              (ref.back().use_reg() ? regression : lorenzo) += 1;
            }
            for (const Isa isa : available_isas()) {
              const IsaScope s(isa);
              BlockScratch scratch;
              for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                          blocks.size()}) {
                std::vector<BlockFit> got(n);
                select_blocks(f.data(), d.nx, d.ny, zmin, blocks.data(), n, ex, ey, ez,
                              got.data(), scratch);
                for (std::size_t b = 0; b < n; ++b)
                  EXPECT_TRUE(same_fit(got[b], ref[b]))
                      << isa_name(isa) << " " << ex << "x" << ey << "x" << ez
                      << " block (" << blocks[b].x << "," << blocks[b].y << ","
                      << blocks[b].z << ") zmin " << zmin << " n " << n;
              }
            }
          }
  // Both predictors must actually be chosen somewhere.
  EXPECT_GT(regression, 0);
  EXPECT_GT(lorenzo, 0);
}

TEST(CodecScratch, AlignedVecIsCacheLineAligned) {
  // Satellite: the thread-local codec scratch must never straddle a cache
  // line at its base — vector loads assume 64-byte alignment.
  for (const std::size_t n : {1u, 7u, 63u, 4096u}) {
    AlignedVec<std::uint32_t> codes(n);
    AlignedVec<float> outliers(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(codes.data()) % kScratchAlign, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(outliers.data()) % kScratchAlign, 0u);
  }
}

TEST(CodecScratch, TrimKeepsSmallDropsLarge) {
  // Satellite: the 32 MiB trim must behave identically for aligned scratch.
  AlignedVec<std::uint32_t> small(1024);
  mrc::detail::trim_scratch(small);
  EXPECT_GE(small.capacity(), 1024u);  // under the cap: kept

  AlignedVec<std::uint32_t> big;
  big.reserve((mrc::detail::kScratchKeepBytes / sizeof(std::uint32_t)) + 1);
  mrc::detail::trim_scratch(big);
  EXPECT_EQ(big.capacity(), 0u);  // over the cap: released
}

// ---------------------------------------------------------------------------
// min_max_f32: the exact std::minmax_element contract on every ISA.
// ---------------------------------------------------------------------------

/// Checks min_max_f32 (and FieldF::min_max) against std::minmax_element bit
/// for bit — so a ±0 tie must pick the same zero, and a NaN input the same
/// element — under every ISA this machine can run.
void expect_min_max_exact(const std::vector<float>& v, const std::string& what) {
  const auto [rlo, rhi] = std::minmax_element(v.begin(), v.end());
  const FieldF f(Dim3{static_cast<index_t>(v.size()), 1, 1},
                 FieldF::Storage(v.begin(), v.end()));
  for (const Isa isa : available_isas()) {
    const IsaScope s(isa);
    const auto [lo, hi] = min_max_f32(v.data(), v.size());
    EXPECT_EQ(std::bit_cast<std::uint32_t>(lo), std::bit_cast<std::uint32_t>(*rlo))
        << what << " n=" << v.size() << " isa=" << isa_name(isa) << " min";
    EXPECT_EQ(std::bit_cast<std::uint32_t>(hi), std::bit_cast<std::uint32_t>(*rhi))
        << what << " n=" << v.size() << " isa=" << isa_name(isa) << " max";
    const auto [flo, fhi] = f.min_max();
    EXPECT_EQ(std::bit_cast<std::uint32_t>(flo), std::bit_cast<std::uint32_t>(lo));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(fhi), std::bit_cast<std::uint32_t>(hi));
  }
}

TEST(SimdMinMax, RandomValuesEveryTailLength) {
  Rng rng(21);
  // 1..67 covers empty and partial vector steps for 4- and 8-float lanes;
  // the longer lengths run the unrolled loop many times over.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 67; ++n) lengths.push_back(n);
  for (const std::size_t n : {128u, 1000u, 4099u}) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(100.0 * rng.normal());
    expect_min_max_exact(v, "random");
    // Extremes planted at the first and last element.
    v.front() = -1e30f;
    v.back() = 1e30f;
    expect_min_max_exact(v, "planted");
  }
}

TEST(SimdMinMax, SignedZeroTiesInBothOrders) {
  Rng rng(22);
  for (std::size_t n = 1; n <= 67; ++n)
    for (const float other : {1.0f, -1.0f}) {
      // Zeros of random sign among values on one side of zero: the zero
      // is the min (other > 0) or the max (other < 0), tied many times.
      std::vector<float> v(n);
      for (auto& x : v) {
        const double u = rng.uniform();
        x = u < 0.35 ? 0.0f : u < 0.7 ? -0.0f : other;
      }
      expect_min_max_exact(v, "mixed zeros");
      // Both fixed orders of one +0/-0 tie, padded with the other value.
      std::vector<float> w(n, other);
      w.front() = 0.0f;
      w.back() = -0.0f;
      expect_min_max_exact(w, "+0 .. -0");
      w.front() = -0.0f;
      w.back() = 0.0f;
      expect_min_max_exact(w, "-0 .. +0");
    }
  expect_min_max_exact(std::vector<float>(40, -0.0f), "all -0");
  std::vector<float> alt(41);
  for (std::size_t i = 0; i < alt.size(); ++i) alt[i] = i % 2 ? -0.0f : 0.0f;
  expect_min_max_exact(alt, "alternating zeros");
}

TEST(SimdMinMax, ZeroTieFoundAtTheFarEnd) {
  // A ±0 min is looked up by a forward scan and a ±0 max by a backward one;
  // here the deciding zero is the last element the scan can reach.
  Rng rng(25);
  const std::size_t n = 100003;
  std::vector<float> pos(n);
  for (auto& x : pos) x = static_cast<float>(1.0 + rng.uniform());
  std::vector<float> v = pos;
  v.back() = -0.0f;  // the only zero, so the min, at the forward scan's far end
  expect_min_max_exact(v, "min zero last");
  v.back() = 0.0f;
  v[n - 2] = -0.0f;  // the first of two tied zeros is the min
  expect_min_max_exact(v, "min zeros -0 then +0");

  std::vector<float> w(n);
  for (auto& x : w) x = static_cast<float>(-1.0 - rng.uniform());
  w.front() = -0.0f;  // the only zero, so the max, at the backward scan's far end
  expect_min_max_exact(w, "max zero first");
  w.front() = 0.0f;
  w[1] = -0.0f;  // the last of two tied zeros is the max
  expect_min_max_exact(w, "max zeros +0 then -0");

  // All zeros: the min is the first element (+0), the max the last (-0).
  std::vector<float> z(n, -0.0f);
  z.front() = 0.0f;
  expect_min_max_exact(z, "all zeros, +0 first");
}

TEST(SimdMinMax, NanFirstMiddleLast) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(23);
  for (const std::size_t n : {1u, 2u, 5u, 16u, 33u, 64u, 67u, 200u}) {
    std::vector<float> base(n);
    for (auto& x : base) x = static_cast<float>(rng.normal());
    for (const std::size_t pos : {std::size_t{0}, n / 2, n - 1}) {
      std::vector<float> v = base;
      v[pos] = nan;
      expect_min_max_exact(v, "nan at " + std::to_string(pos));
    }
  }
}

TEST(SimdMinMax, InfinitiesDenormalsAndConstants) {
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  Rng rng(24);
  for (const std::size_t n : {1u, 7u, 32u, 67u, 300u}) {
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    v[n / 3] = inf;
    v[(2 * n) / 3] = -inf;
    expect_min_max_exact(v, "infinities");

    std::vector<float> d(n);
    for (std::size_t i = 0; i < n; ++i)
      d[i] = static_cast<float>(static_cast<double>(i % 5) - 2.0) * tiny;  // ±denormals and ±0
    expect_min_max_exact(d, "denormals");
    for (std::size_t i = 0; i < n; ++i) d[i] = tiny * static_cast<float>(1 + i % 3);
    expect_min_max_exact(d, "positive denormals");

    expect_min_max_exact(std::vector<float>(n, 3.25f), "constant");
  }
}

}  // namespace
}  // namespace mrc::simd
