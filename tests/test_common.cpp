#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/config.h"
#include "common/dims.h"
#include "common/rng.h"
#include "grid/field.h"

namespace mrc {
namespace {

TEST(Dim3, SizeAndIndexRoundTrip) {
  const Dim3 d{7, 5, 3};
  EXPECT_EQ(d.size(), 105);
  index_t linear = 0;
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x) EXPECT_EQ(d.index(x, y, z), linear++);
}

TEST(Dim3, Contains) {
  const Dim3 d{4, 4, 4};
  EXPECT_TRUE(d.contains(0, 0, 0));
  EXPECT_TRUE(d.contains(3, 3, 3));
  EXPECT_FALSE(d.contains(4, 0, 0));
  EXPECT_FALSE(d.contains(0, -1, 0));
}

TEST(Dim3, MaxExtentAndAxisAccess) {
  const Dim3 d{4, 9, 2};
  EXPECT_EQ(d.max_extent(), 9);
  EXPECT_EQ(d[0], 4);
  EXPECT_EQ(d[1], 9);
  EXPECT_EQ(d[2], 2);
}

TEST(Dim3, CeilDivAndBlocksFor) {
  EXPECT_EQ(ceil_div(10, 4), 3);
  EXPECT_EQ(ceil_div(8, 4), 2);
  const Dim3 b = blocks_for({10, 8, 1}, 4);
  EXPECT_EQ(b, Dim3(3, 2, 1));
}

TEST(Field3D, ConstructAndAccess) {
  Field3D<float> f({3, 4, 5}, 1.5f);
  EXPECT_EQ(f.size(), 60);
  EXPECT_FLOAT_EQ(f.at(2, 3, 4), 1.5f);
  f.at(1, 2, 3) = 7.0f;
  EXPECT_FLOAT_EQ(f[f.dims().index(1, 2, 3)], 7.0f);
}

TEST(Field3D, CheckedAccessThrows) {
  Field3D<float> f({2, 2, 2});
  EXPECT_THROW((void)f.at_checked(2, 0, 0), ContractError);
  EXPECT_NO_THROW((void)f.at_checked(1, 1, 1));
}

TEST(Field3D, MinMaxAndRange) {
  Field3D<float> f({4, 1, 1});
  f[0] = -3.0f;
  f[1] = 5.0f;
  f[2] = 0.0f;
  f[3] = 2.0f;
  const auto [lo, hi] = f.min_max();
  EXPECT_FLOAT_EQ(lo, -3.0f);
  EXPECT_FLOAT_EQ(hi, 5.0f);
  EXPECT_DOUBLE_EQ(f.value_range(), 8.0);
}

TEST(Field3D, VectorConstructorValidatesSize) {
  FieldF::Storage v(7, 0.0f);
  EXPECT_THROW(FieldF({2, 2, 2}, std::move(v)), ContractError);
}

TEST(ByteRw, PodRoundTrip) {
  Bytes buf;
  ByteWriter w(buf);
  w.put<std::uint32_t>(0xdeadbeef);
  w.put<double>(3.25);
  w.put<std::uint8_t>(7);
  ByteReader r(buf);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get<std::uint8_t>(), 7);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteRw, VarintRoundTrip) {
  Bytes buf;
  ByteWriter w(buf);
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 0xffffffffull, 0xffffffffffffffffull};
  for (auto v : values) w.put_varint(v);
  ByteReader r(buf);
  for (auto v : values) EXPECT_EQ(r.get_varint(), v);
}

TEST(ByteRw, BlobRoundTrip) {
  Bytes buf;
  ByteWriter w(buf);
  Bytes payload{std::byte{1}, std::byte{2}, std::byte{3}};
  w.put_blob(payload);
  w.put_blob({});
  ByteReader r(buf);
  auto b1 = r.get_blob();
  ASSERT_EQ(b1.size(), 3u);
  EXPECT_EQ(b1[2], std::byte{3});
  EXPECT_EQ(r.get_blob().size(), 0u);
}

TEST(ByteRw, TruncationThrows) {
  Bytes buf;
  ByteWriter w(buf);
  w.put<std::uint16_t>(1);
  ByteReader r(buf);
  EXPECT_THROW((void)r.get<std::uint64_t>(), CodecError);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Config, ScaledExtentIsUsablePowerOfTwo) {
  // Whatever MRC_SCALE is set to, scaled extents stay powers of two >= 16
  // (required by the FFT-based generators and spectrum analysis).
  const index_t v = scaled_extent(512);
  EXPECT_GE(v, 16);
  EXPECT_EQ(v & (v - 1), 0);
}

}  // namespace
}  // namespace mrc
