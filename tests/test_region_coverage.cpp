// Region reads write every sample of their output. Decoders and assemblers
// allocate region outputs uninitialised (Field3D(Dim3, uninit)) and rely on
// the brick cores — or the decoder sweep — covering the box exactly. These
// cases compare region reads through every path (tiled, adaptive, Dataset,
// wire::Client) against a full decode, on extents that are not multiples of
// the brick, on 1-voxel boxes and on boxes touching the domain edge. ASan
// builds fill uninitialised storage with NaN, so a sample left unwritten
// fails the finite-value and bit-equality checks here.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "adaptive/adaptive.h"
#include "api/mrc_api.h"
#include "progressive/progressive.h"
#include "pyramid/pyramid.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "test_util.h"

namespace mrc {
namespace {

using tiled::Box;
namespace wire = serve::wire;

constexpr Dim3 kDims{23, 19, 17};  // brick 8: partial bricks on every axis

FieldF source_field() {
  FieldF f = test::smooth_field(kDims);
  const FieldF n = test::noise_field(kDims, 0.5, 7);
  for (index_t i = 0; i < f.size(); ++i) f[i] += n[i];
  return f;
}

api::Options options(const std::string& codec) {
  api::Options opt;
  opt.codec = codec;
  opt.eb = 1e-3;
  opt.tile = 8;
  opt.threads = 2;
  opt.levels = 2;
  opt.importance = "gradient";
  opt.coarse_level = 1;
  opt.prefetch = false;
  return opt;
}

/// Boxes inside `d`: 1-voxel corners and brick seams, edge-touching slabs,
/// brick-straddling interiors and the whole domain.
std::vector<Box> probe_boxes(Dim3 d) {
  std::vector<Box> boxes = {
      {{0, 0, 0}, {1, 1, 1}},
      {{d.nx - 1, d.ny - 1, d.nz - 1}, {d.nx, d.ny, d.nz}},
      {{0, 0, 0}, {d.nx, d.ny, d.nz}},
      {{d.nx / 3, 1, d.nz / 2}, {d.nx, d.ny, d.nz}},
      {{0, d.ny - 1, 0}, {d.nx, d.ny, d.nz}},
      {{1, 2, 3}, {d.nx - 1, d.ny - 2, d.nz - 3}},
  };
  // 1-voxel boxes on either side of the first brick seam, where it exists.
  for (const index_t c : {index_t{7}, index_t{8}})
    if (c < d.nx && c < d.ny && c < d.nz) boxes.push_back({{c, c, c}, {c + 1, c + 1, c + 1}});
  return boxes;
}

FieldF window(const FieldF& full, const Box& b) {
  const Dim3 e = b.extent();
  FieldF out(e);
  for (index_t z = 0; z < e.nz; ++z)
    for (index_t y = 0; y < e.ny; ++y)
      for (index_t x = 0; x < e.nx; ++x)
        out.at(x, y, z) = full.at(b.lo.x + x, b.lo.y + y, b.lo.z + z);
  return out;
}

void expect_all_finite(const FieldF& f, const std::string& what) {
  index_t bad = 0;
  for (index_t i = 0; i < f.size(); ++i) bad += std::isfinite(f[i]) ? 0 : 1;
  EXPECT_EQ(bad, 0) << what << ": " << bad << " non-finite samples";
}

void expect_bits_equal(const FieldF& got, const FieldF& want, const std::string& what) {
  ASSERT_EQ(got.dims(), want.dims()) << what;
  expect_all_finite(got, what);
  index_t diff = 0;
  for (index_t i = 0; i < got.size(); ++i)
    diff += std::bit_cast<std::uint32_t>(got[i]) != std::bit_cast<std::uint32_t>(want[i]);
  EXPECT_EQ(diff, 0) << what << ": " << diff << " samples differ from the full decode";
}

std::string box_str(const Box& b) {
  return "[" + std::to_string(b.lo.x) + "," + std::to_string(b.lo.y) + "," +
         std::to_string(b.lo.z) + ")-[" + std::to_string(b.hi.x) + "," +
         std::to_string(b.hi.y) + "," + std::to_string(b.hi.z) + ")";
}

class RegionCoverage : public ::testing::TestWithParam<const char*> {};

TEST_P(RegionCoverage, TiledAndAdaptiveReadsMatchFullDecode) {
  const FieldF f = source_field();
  const auto opt = options(GetParam());
  const Bytes mrct = api::compress_tiled(f, opt);
  const Bytes mrca = api::compress_adaptive_roi(f, opt);
  const FieldF full_t = api::decompress(mrct);
  const FieldF full_a = api::decompress(mrca);
  expect_all_finite(full_t, "tiled full decode");
  expect_all_finite(full_a, "adaptive full decode");
  for (const Box& b : probe_boxes(kDims)) {
    const FieldF want_t = window(full_t, b);
    expect_bits_equal(tiled::read_region(mrct, b, 2).data, want_t, "tiled " + box_str(b));
    expect_bits_equal(api::read_region(mrct, b, 1), want_t, "api tiled " + box_str(b));
    expect_bits_equal(adaptive::read_region(mrca, b, 2).data, window(full_a, b),
                      "adaptive " + box_str(b));
  }
}

TEST_P(RegionCoverage, DatasetReadsMatchFullDecodeOnEveryKind) {
  const FieldF f = source_field();
  const auto opt = options(GetParam());
  struct Case {
    std::string name;
    Bytes stream;
    int level;
    FieldF full;
  };
  std::vector<Case> cases;
  {
    Bytes s = api::compress_tiled(f, opt);
    FieldF full = api::decompress(s);
    cases.push_back({"tiled", std::move(s), 0, std::move(full)});
  }
  {
    Bytes s = api::compress_adaptive_roi(f, opt);
    FieldF full = api::decompress(s);
    cases.push_back({"adaptive", std::move(s), 0, std::move(full)});
  }
  const Bytes mrcp = api::build_pyramid(f, opt);
  const Bytes mrcr = api::build_progressive(f, opt);
  for (const int level : {0, 1}) {
    cases.push_back({"pyramid", mrcp, level, pyramid::decompress_level(mrcp, level, 1)});
    cases.push_back(
        {"progressive", mrcr, level, progressive::decompress_level(mrcr, level, 1)});
  }
  for (const Case& c : cases) {
    const std::string what = c.name + " L" + std::to_string(c.level);
    expect_all_finite(c.full, what + " full decode");
    serve::Dataset ds = api::open_dataset(c.stream, opt);
    for (const Box& b : probe_boxes(c.full.dims())) {
      const FieldF want = window(c.full, b);
      // Cold (decoded here) and warm (assembled from cached bricks).
      expect_bits_equal(ds.read_region(c.level, b), want, what + " cold " + box_str(b));
      expect_bits_equal(ds.read_region(c.level, b), want, what + " warm " + box_str(b));
    }
  }
}

TEST_P(RegionCoverage, WireClientReadsMatchFullDecode) {
  const FieldF f = source_field();
  const auto opt = options(GetParam());
  serve::ServerConfig cfg = opt.server_config();
  serve::Server srv(cfg);
  wire::Client client(
      [&srv](std::span<const std::byte> frame) { return srv.handle_frame(frame); });

  const Bytes mrct = api::compress_tiled(f, opt);
  const Bytes mrca = api::compress_adaptive_roi(f, opt);
  const Bytes mrcr = api::build_progressive(f, opt);
  const FieldF full_t = api::decompress(mrct);
  const FieldF full_a = api::decompress(mrca);
  const std::uint32_t id_t = client.open(mrct).id;
  const std::uint32_t id_a = client.open(mrca).id;
  const std::uint32_t id_r = client.open(mrcr).id;
  for (const Box& b : probe_boxes(kDims)) {
    expect_bits_equal(client.region(id_t, 0, b), window(full_t, b), "wire tiled " + box_str(b));
    expect_bits_equal(client.region(id_a, 0, b), window(full_a, b),
                      "wire adaptive " + box_str(b));
  }
  for (const int level : {0, 1}) {
    const FieldF full = progressive::decompress_level(mrcr, level, 1);
    for (const Box& b : probe_boxes(full.dims())) {
      const std::string what = "wire progressive L" + std::to_string(level) + " " + box_str(b);
      const wire::ProgressiveResult r = client.read_progressive(id_r, level, b);
      ASSERT_TRUE(r.complete()) << what << ": " << r.error;
      expect_bits_equal(r.data, window(full, b), what);
    }
  }
}

TEST_P(RegionCoverage, FullDecodeIsLaneInvariantOnEveryContainer) {
  // Every container decodes through the source factory (api::decompress,
  // mrcc decompress threads=N) at any lane count to the same bits as its
  // own full decode.
  const FieldF f = source_field();
  const auto opt = options(GetParam());
  const Bytes mrct = api::compress_tiled(f, opt);
  const Bytes mrcp = api::build_pyramid(f, opt);
  const Bytes mrca = api::compress_adaptive_roi(f, opt);
  const Bytes mrcr = api::build_progressive(f, opt);
  const struct {
    const char* name;
    const Bytes& stream;
    FieldF own;
  } cases[] = {{"tiled", mrct, tiled::decompress(mrct, 1)},
               {"pyramid", mrcp, pyramid::decompress_level(mrcp, 0, 1)},
               {"adaptive", mrca, adaptive::decompress(mrca, 1)},
               {"progressive", mrcr, progressive::decompress_level(mrcr, 0, 1)}};
  for (const auto& c : cases) {
    expect_all_finite(c.own, std::string(c.name) + " own full decode");
    for (const int lanes : {1, 4})
      expect_bits_equal(api::decompress(c.stream, lanes), c.own,
                        std::string(c.name) + " at " + std::to_string(lanes) + " lanes");
  }
  // The coarser levels of the multi-level containers, at 1 and 4 lanes.
  EXPECT_EQ(pyramid::decompress_level(mrcp, 1, 4), pyramid::decompress_level(mrcp, 1, 1));
  EXPECT_EQ(progressive::decompress_level(mrcr, 1, 4),
            progressive::decompress_level(mrcr, 1, 1));
}

INSTANTIATE_TEST_SUITE_P(Codecs, RegionCoverage,
                         ::testing::Values("interp", "lorenzo", "zfpx"),
                         [](const auto& info) { return std::string(info.param); });

}  // namespace
}  // namespace mrc
