// Cross-cutting property sweeps: invariants that must hold over broad
// parameter grids rather than at hand-picked points.

#include <gtest/gtest.h>

#include <array>

#include "compressors/interp/interp_compressor.h"
#include "compressors/registry.h"
#include "grid/field_ops.h"
#include "lossless/huffman.h"
#include "lossless/quant_codec.h"
#include "merge/merge_strategies.h"
#include "metrics/psnr.h"
#include "metrics/ssim.h"
#include "postproc/bezier.h"
#include "test_util.h"

namespace mrc {
namespace {

// ---------------------------------------------------------------------------
// Interpolation coverage: every grid shape must be visited exactly once —
// verified indirectly by lossless-at-tiny-eb round trips over a dims grid.
// ---------------------------------------------------------------------------

class InterpDimsSweep : public ::testing::TestWithParam<Dim3> {};

TEST_P(InterpDimsSweep, TinyBoundActsNearLossless) {
  const Dim3 d = GetParam();
  const FieldF f = test::smooth_field(d, 10.0);
  const auto rt = round_trip(InterpCompressor{}, f, 1e-7);
  EXPECT_LE(test::max_abs_err(f, rt.reconstructed), 1e-7 * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    DimGrid, InterpDimsSweep,
    ::testing::Values(Dim3{2, 3, 4}, Dim3{4, 4, 4}, Dim3{5, 5, 5}, Dim3{8, 8, 8},
                      Dim3{9, 9, 9}, Dim3{15, 17, 16}, Dim3{16, 16, 1}, Dim3{1, 16, 16},
                      Dim3{16, 1, 16}, Dim3{3, 1, 1}, Dim3{1, 1, 2}, Dim3{23, 29, 31},
                      Dim3{64, 2, 2}, Dim3{2, 64, 2}),
    [](const auto& info) {
      return std::to_string(info.param.nx) + "x" + std::to_string(info.param.ny) + "x" +
             std::to_string(info.param.nz);
    });

// ---------------------------------------------------------------------------
// Error-bound scaling: halving the bound must not increase accuracy error,
// and must not decrease stream size, for every codec.
// ---------------------------------------------------------------------------

class CodecMonotonicity : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Compressor> make() const {
    return registry().make(registry().names().at(static_cast<std::size_t>(GetParam())));
  }
};

TEST_P(CodecMonotonicity, SizeGrowsAsBoundShrinks) {
  const auto codec = make();
  const FieldF f = test::smooth_field({24, 24, 24}, 100.0);
  // Block-adaptive codecs (SZ2's per-block predictor selection) are not
  // strictly monotone — selection flips can shave a few percent when the
  // bound tightens. Allow 10% slack; gross inversions still fail.
  std::size_t prev = 0;
  for (const double eb : {10.0, 1.0, 0.1, 0.01}) {
    const auto s = codec->compress(f, eb).size();
    if (prev > 0) {
      EXPECT_GE(static_cast<double>(s), static_cast<double>(prev) * 0.9) << "eb " << eb;
    }
    prev = s;
  }
}

TEST_P(CodecMonotonicity, MaxErrorTracksBound) {
  const auto codec = make();
  const FieldF f = test::smooth_field({24, 24, 24}, 100.0);
  double prev_err = 1e300;
  for (const double eb : {10.0, 1.0, 0.1}) {
    const auto rt = round_trip(*codec, f, eb);
    const double err = test::max_abs_err(f, rt.reconstructed);
    EXPECT_LE(err, eb);
    EXPECT_LE(err, prev_err * 1.001);
    prev_err = err;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecMonotonicity, ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                           switch (info.param) {
                             case 0: return std::string("interp");
                             case 1: return std::string("lorenzo");
                             default: return std::string("zfpx");
                           }
                         });

// ---------------------------------------------------------------------------
// Quantization-code codec: exact round trip across radii and zero densities.
// ---------------------------------------------------------------------------

struct QuantSweep {
  // 64-bit so the struct has no padding: GoogleTest names each case after the
  // parameter's raw bytes, and padding bytes are indeterminate.
  std::uint64_t radius;
  double zero_fraction;
};

class QuantCodecSweep : public ::testing::TestWithParam<QuantSweep> {};

TEST_P(QuantCodecSweep, ExactRoundTrip) {
  const auto radius = static_cast<std::uint32_t>(GetParam().radius);
  const double zero_fraction = GetParam().zero_fraction;
  Rng rng(radius * 13 + static_cast<std::uint64_t>(zero_fraction * 100));
  std::vector<std::uint32_t> codes;
  for (int i = 0; i < 20000; ++i) {
    if (rng.uniform() < zero_fraction)
      codes.push_back(radius);
    else
      codes.push_back(static_cast<std::uint32_t>(rng.uniform_index(2 * radius + 1)));
  }
  EXPECT_EQ(lossless::decode_quant_codes(lossless::encode_quant_codes(codes, radius),
                                         radius),
            codes);
}

INSTANTIATE_TEST_SUITE_P(RadiusByDensity, QuantCodecSweep,
                         ::testing::Values(QuantSweep{4, 0.0}, QuantSweep{4, 0.99},
                                           QuantSweep{512, 0.5}, QuantSweep{512, 0.999},
                                           QuantSweep{32768, 0.9},
                                           QuantSweep{32768, 0.0}));

// ---------------------------------------------------------------------------
// Huffman optimality-adjacent property: coded size within 15% of the
// empirical entropy bound for assorted distributions.
// ---------------------------------------------------------------------------

TEST(HuffmanProperty, NearEntropyOnGeometricDistribution) {
  Rng rng(5);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 60000; ++i) {
    std::uint32_t s = 0;
    while (s < 30 && rng.uniform() < 0.5) ++s;
    syms.push_back(s);
  }
  std::array<double, 32> freq{};
  for (auto s : syms) ++freq[s];
  double entropy_bits = 0;
  for (double c : freq)
    if (c > 0) entropy_bits -= c * std::log2(c / static_cast<double>(syms.size()));
  const auto enc = lossless::huffman_encode(syms, 32);
  EXPECT_LT(static_cast<double>(enc.size() * 8),
            entropy_bits * 1.15 + 2048 /* header slack */);
}

// ---------------------------------------------------------------------------
// Restriction/prolongation pair: restriction after nearest-prolongation is
// the identity on the coarse grid (one-sided inverse).
// ---------------------------------------------------------------------------

TEST(GridProperty, RestrictionIsLeftInverseOfNearestProlongation) {
  const FieldF coarse = test::noise_field({8, 8, 8}, 5.0, 3);
  const FieldF fine = prolong_nearest(coarse, {16, 16, 16});
  const FieldF back = restrict_average(fine, 2);
  for (index_t i = 0; i < coarse.size(); ++i) EXPECT_FLOAT_EQ(back[i], coarse[i]);
}

TEST(GridProperty, RestrictionPreservesMean) {
  const FieldF fine = test::noise_field({16, 16, 16}, 5.0, 4);
  const FieldF coarse = restrict_average(fine, 2);
  double mf = 0, mc = 0;
  for (index_t i = 0; i < fine.size(); ++i) mf += fine[i];
  for (index_t i = 0; i < coarse.size(); ++i) mc += coarse[i];
  EXPECT_NEAR(mf / static_cast<double>(fine.size()), mc / static_cast<double>(coarse.size()), 1e-4);
}

// ---------------------------------------------------------------------------
// Post-process curve family: every curve respects the clamp and leaves
// non-boundary points untouched.
// ---------------------------------------------------------------------------

class CurveSweep : public ::testing::TestWithParam<postproc::CurveKind> {};

TEST_P(CurveSweep, ClampAndLocalityHold) {
  const auto curve = GetParam();
  const FieldF f = test::noise_field({16, 16, 16}, 10.0, 6);
  const double eb = 0.5, a = 0.4;
  const FieldF p = postproc::bezier_postprocess_axis(f, 4, eb, a, 0, curve);
  for (index_t z = 0; z < 16; ++z)
    for (index_t y = 0; y < 16; ++y)
      for (index_t x = 0; x < 16; ++x) {
        const double delta = std::abs(p.at(x, y, z) - f.at(x, y, z));
        EXPECT_LE(delta, a * eb * (1 + 1e-5));
        const index_t r = x % 4;
        const bool boundary = (r == 0 || r == 3) && x > 0 && x < 15;
        if (!boundary) {
          EXPECT_EQ(p.at(x, y, z), f.at(x, y, z));
        }
      }
}

INSTANTIATE_TEST_SUITE_P(Curves, CurveSweep,
                         ::testing::Values(postproc::CurveKind::bezier_quadratic,
                                           postproc::CurveKind::catmull_cubic,
                                           postproc::CurveKind::bspline),
                         [](const auto& info) {
                           switch (info.param) {
                             case postproc::CurveKind::bezier_quadratic:
                               return std::string("bezier");
                             case postproc::CurveKind::catmull_cubic:
                               return std::string("catmull");
                             default:
                               return std::string("bspline");
                           }
                         });

// ---------------------------------------------------------------------------
// SSIM sanity across distortion families: additive noise, bias, and
// contrast change all reduce SSIM, and SSIM is bounded by 1.
// ---------------------------------------------------------------------------

TEST(SsimProperty, BoundedAndSensitiveToDistortionFamilies) {
  const FieldF f = test::smooth_field({20, 20, 20}, 100.0);
  FieldF noisy = f, biased = f, stretched = f;
  Rng rng(8);
  for (index_t i = 0; i < f.size(); ++i) {
    noisy[i] += static_cast<float>(rng.normal(0, 10));
    biased[i] += 30.0f;
    stretched[i] *= 1.5f;
  }
  for (const FieldF* g : {&noisy, &biased, &stretched}) {
    const double s = metrics::ssim(f, *g);
    EXPECT_LE(s, 1.0 + 1e-12);
    EXPECT_LT(s, 0.999);
  }
}

// ---------------------------------------------------------------------------
// Merge strategies preserve multiset of values (no sample invented or lost).
// ---------------------------------------------------------------------------

TEST(MergeProperty, LinearMergePreservesValueMultiset) {
  FieldF f = test::noise_field({32, 32, 32}, 3.0, 9);
  const std::array<double, 2> fr{0.4, 0.6};
  const auto mr = amr::build_hierarchy(f, 8, fr);
  const auto set = extract_unit_blocks(mr.levels[0], 8);
  const FieldF merged = merge_linear(set);
  double sum_set = 0, sum_merged = 0;
  for (const float v : set.data) sum_set += v;
  for (index_t i = 0; i < merged.size(); ++i) sum_merged += merged[i];
  EXPECT_NEAR(sum_set, sum_merged, std::abs(sum_set) * 1e-12 + 1e-9);
}

}  // namespace
}  // namespace mrc
