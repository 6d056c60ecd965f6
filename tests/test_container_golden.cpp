// Frozen-bytes goldens for the four brick containers (MRCT, MRCP, MRCA,
// MRCR) built at a RELATIVE error bound. Each stream stores the absolute
// bound resolved from the field's value range plus a vmin/vmax per brick
// (and per level), so these hashes pin Options::absolute_eb and every
// stored min/max — which the codec-level goldens in test_frozen_format.cpp
// (absolute bound, no container index) do not cover.
//
// The field mixes +0.0f and -0.0f ties in both orders, so a min/max that
// picked a different zero than std::minmax_element (first smallest, last
// largest) flips a sign bit in some brick's stored range and fails here.

#include <gtest/gtest.h>

#include <cmath>

#include "api/mrc_api.h"
#include "common/rng.h"

namespace mrc {
namespace {

std::uint64_t fnv1a(const Bytes& b) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (auto c : b) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Smooth field whose small magnitudes are snapped to a randomly signed
/// zero: whole bricks end up with ±0 as their minimum or maximum.
FieldF signed_zero_field() {
  const Dim3 d{26, 21, 19};
  FieldF f(d);
  Rng rng(5);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x) {
        const double v = std::sin(0.25 * x) * std::cos(0.2 * y) + 0.04 * z - 0.3;
        const bool neg = rng.uniform() < 0.5;
        f.at(x, y, z) = std::abs(v) < 0.25 ? (neg ? -0.0f : 0.0f) : static_cast<float>(v);
      }
  return f;
}

api::Options rel_options() {
  auto opt = api::Options::parse("codec=interp,eb=1e-3,eb_mode=rel,tile=8,threads=2");
  opt.levels = 2;
  return opt;
}

TEST(ContainerGolden, TiledRelativeBound) {
  const Bytes s = api::compress_tiled(signed_zero_field(), rel_options());
  EXPECT_EQ(s.size(), 10208u);
  EXPECT_EQ(fnv1a(s), 0x2d7eb070bec0a8a0ull);
}

TEST(ContainerGolden, PyramidRelativeBound) {
  const Bytes s = api::build_pyramid(signed_zero_field(), rel_options());
  EXPECT_EQ(s.size(), 12614u);
  EXPECT_EQ(fnv1a(s), 0x541b4060973ad7feull);
}

TEST(ContainerGolden, AdaptiveRelativeBound) {
  auto opt = rel_options();
  opt.importance = "gradient";
  opt.coarse_level = 1;
  const Bytes s = api::compress_adaptive_roi(signed_zero_field(), opt);
  EXPECT_EQ(s.size(), 7675u);
  EXPECT_EQ(fnv1a(s), 0x2fa79325e5225fbbull);
}

TEST(ContainerGolden, ProgressiveRelativeBound) {
  const Bytes s = api::build_progressive(signed_zero_field(), rel_options());
  EXPECT_EQ(s.size(), 13423u);
  EXPECT_EQ(fnv1a(s), 0xa145b3762fcf16eaull);
}

}  // namespace
}  // namespace mrc
