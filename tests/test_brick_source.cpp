// source::BrickSource — the one interface over MRCT/MRCP/MRCA/MRCR. The
// factory must open every container with the geometry api::info reports,
// and must be total on everything else: every registered codec stream, a
// snapshot, an sz3mr level stream, an unknown magic and every truncation of
// each container fail with CodecError, never a crash or an allocation sized
// from a hostile claim (ci.sh runs this suite under ASan and UBSan too).

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "api/mrc_api.h"
#include "core/sz3mr.h"
#include "exec/thread_pool.h"
#include "grid/multires.h"
#include "source/brick_source.h"
#include "test_util.h"

namespace mrc {
namespace {

api::Options small_options() {
  api::Options opt;
  opt.codec = "zfpx";
  opt.eb = 1e-2;
  opt.tile = 8;
  opt.levels = 2;
  opt.coarse_level = 1;
  return opt;
}

struct Container {
  std::string name;
  Bytes stream;
};

std::vector<Container> containers(const FieldF& f) {
  const api::Options opt = small_options();
  return {{"tiled", api::compress_tiled(f, opt)},
          {"pyramid", api::build_pyramid(f, opt)},
          {"adaptive", api::compress_adaptive_roi(f, opt)},
          {"progressive", api::build_progressive(f, opt)}};
}

TEST(BrickSourceFactory, OpensEveryContainerWithItsGeometry) {
  const FieldF f = test::smooth_field({17, 16, 9});
  for (const Container& c : containers(f)) {
    const auto src = source::open(c.stream);
    const api::StreamInfo info = api::info(c.stream);
    EXPECT_EQ(src->dims(0), f.dims()) << c.name;
    EXPECT_EQ(src->eb(), info.eb) << c.name;
    // The adaptive stream's levels live under its one addressable level.
    const std::size_t want_levels = info.kind == api::StreamInfo::Kind::adaptive
                                        ? 1
                                        : info.levels;
    EXPECT_EQ(static_cast<std::size_t>(src->levels()), want_levels) << c.name;
    for (int l = 0; l < src->levels(); ++l) {
      EXPECT_GE(src->level_error(l), src->eb()) << c.name << " L" << l;
      EXPECT_EQ(source::read(*src, l, tiled::full_box(src->dims(l))).dims(), src->dims(l))
          << c.name << " L" << l;
    }
    EXPECT_THROW((void)src->dims(src->levels()), ContractError) << c.name;
  }
}

TEST(BrickSourceFactory, AdaptiveCacheTagsCarryTheStoredLevel) {
  const FieldF f = test::smooth_field({16, 16, 16});
  const Bytes mrca = api::compress_adaptive_roi(f, small_options());
  const auto src = source::open(mrca);
  const adaptive::Index idx = adaptive::read_index(mrca);
  for (std::size_t t = 0; t < idx.bricks.size(); ++t)
    EXPECT_EQ(src->cache_tag(0, static_cast<index_t>(t)) >> 48,
              static_cast<std::uint64_t>(idx.bricks[t].level));
}

TEST(BrickSourceFactory, LayeredReadsAreProgressiveOnly) {
  const FieldF f = test::smooth_field({16, 16, 16});
  const tiled::Box box{{0, 0, 0}, {4, 4, 4}};
  for (const Container& c : containers(f)) {
    const auto src = source::open(c.stream);
    exec::ThreadPool pool(1);
    const source::BrickFetch fetch = [&](int l, index_t t) {
      return std::make_shared<const FieldF>(src->decode_brick(l, t));
    };
    if (c.name == "progressive") {
      const auto layers = src->read_layers(0, box, fetch, pool);
      EXPECT_EQ(progressive::fold(layers), src->read(0, box, fetch, pool));
    } else {
      EXPECT_THROW((void)src->read_layers(0, box, fetch, pool), ContractError) << c.name;
    }
  }
}

TEST(BrickSourceFactory, RejectsEveryRegisteredCodecStream) {
  const FieldF f = test::smooth_field({12, 10, 8});
  for (const std::string& name : registry().names()) {
    const Bytes stream = registry().make(name)->compress(f, 1e-2);
    EXPECT_THROW((void)source::open(stream), CodecError) << name;
  }
}

TEST(BrickSourceFactory, RejectsSnapshotsLevelStreamsAndUnknownMagics) {
  const FieldF f = test::smooth_field({32, 32, 32});
  EXPECT_THROW((void)source::open(api::compress_adaptive(f)), CodecError);

  const std::array<double, 2> fr{0.5, 0.5};
  const auto mr = amr::build_hierarchy(f, 16, fr);
  EXPECT_THROW(
      (void)source::open(sz3mr::compress_level(mr.levels[0], 16, 0.5, sz3mr::ours_pad())),
      CodecError);

  Bytes unknown;
  ByteWriter w(unknown);
  detail::write_header(w, 0x5a5a'5a5a, {4, 4, 4}, 1e-3);
  unknown.resize(unknown.size() + 64, std::byte{0});
  EXPECT_THROW((void)source::open(unknown), CodecError);
  EXPECT_THROW((void)source::open(Bytes{}), CodecError);
  EXPECT_THROW((void)source::open(Bytes(16, std::byte{0xff})), CodecError);
}

TEST(BrickSourceFactory, EveryTruncationOfEveryContainerRejected) {
  const FieldF f = test::smooth_field({16, 12, 9});
  for (const Container& c : containers(f)) {
    const std::span<const std::byte> whole(c.stream);
    // Every prefix of the preamble and index, and of the payload: a stream
    // that ends early is missing bytes the index promised.
    for (std::size_t n = 0; n < whole.size(); ++n) {
      const Bytes cut(whole.begin(), whole.begin() + static_cast<std::ptrdiff_t>(n));
      EXPECT_THROW((void)source::open(cut), CodecError) << c.name << " prefix " << n;
    }
    EXPECT_NO_THROW((void)source::open(whole)) << c.name;
  }
}

}  // namespace
}  // namespace mrc
