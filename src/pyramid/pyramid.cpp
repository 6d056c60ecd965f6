#include "pyramid/pyramid.h"

#include <algorithm>
#include <cmath>

#include "exec/thread_pool.h"
#include "grid/field_ops.h"
#include "obs/obs.h"

namespace mrc::pyramid {

namespace {

inline constexpr level_table::Format kFormat{kPyramidMagic, "pyramid"};

}  // namespace

double prolong_error(const FieldF& coarse, const FieldF& fine, exec::ThreadPool& pool) {
  const index_t nz = fine.dims().nz;
  const index_t slabs = std::min<index_t>(nz, 4 * pool.size());
  std::vector<double> errs(static_cast<std::size_t>(slabs), 0.0);
  pool.parallel_for(slabs, [&](index_t s) {
    errs[static_cast<std::size_t>(s)] = prolong_error_slab(
        coarse, fine, s * nz / slabs, (s + 1) * nz / slabs);
  });
  return *std::max_element(errs.begin(), errs.end());
}

Dim3 level_dims(Dim3 fine, int level) {
  MRC_REQUIRE(level >= 0 && level < kMaxLevels, "bad pyramid level");
  Dim3 d = fine;
  for (int l = 0; l < level; ++l) d = blocks_for(d, 2);
  return d;
}

int auto_levels(Dim3 fine, index_t brick) {
  int n = 1;
  Dim3 d = fine;
  while (n < kMaxLevels && d.max_extent() > brick) {
    d = blocks_for(d, 2);
    ++n;
  }
  return n;
}

Bytes build(const FieldF& f, double abs_eb, const Config& cfg) {
  MRC_REQUIRE(!f.empty(), "pyramid: empty field");
  MRC_REQUIRE(abs_eb > 0.0, "pyramid: error bound must be positive");
  MRC_REQUIRE(cfg.brick >= 1, "pyramid: brick edge must be >= 1");
  MRC_REQUIRE(cfg.levels >= 0 && cfg.levels <= kMaxLevels,
              "pyramid: level count must be in [0, " + std::to_string(kMaxLevels) + "]");
  const Dim3 d = f.dims();
  const int n_levels = cfg.levels == 0 ? auto_levels(d, cfg.brick) : cfg.levels;

  tiled::Config tc;
  tc.codec = cfg.codec;
  tc.tuning = cfg.tuning;
  tc.brick = cfg.brick;
  tc.threads = cfg.threads;

  // restrict_half chain; every level's bricks compress in parallel on the
  // exec pool inside tiled::compress (level 0 holds 8/7 of the total work,
  // so within-level parallelism is the right axis), and the per-level error
  // measurement slabs across a pool of the same width.
  std::vector<Bytes> streams(static_cast<std::size_t>(n_levels));
  std::vector<LevelEntry> entries(static_cast<std::size_t>(n_levels));
  exec::ThreadPool pool(cfg.threads);
  FieldF coarse;  // level l's data for l >= 1
  for (int l = 0; l < n_levels; ++l) {
    if (l > 0) coarse = restrict_half(l == 1 ? f : coarse);
    const FieldF& level = l == 0 ? f : coarse;

    LevelEntry& e = entries[static_cast<std::size_t>(l)];
    e.dims = level.dims();
    const auto [lo, hi] = level.min_max();
    e.vmin = lo;
    e.vmax = hi;
    // The level's fitness for LOD selection: how far a rendering served from
    // this level can sit from the finest grid. Downsampling error is
    // measured against the pre-compression data; the codec adds at most eb.
    e.approx_err = static_cast<float>(
        l == 0 ? abs_eb : prolong_error(level, f, pool) + abs_eb);
    OBS_SPAN("pyramid.level_compress");
    streams[static_cast<std::size_t>(l)] = tiled::compress(level, abs_eb, tc);
  }

  return level_table::write(kFormat, d, abs_eb, entries, streams);
}

Index read_geometry(std::span<const std::byte> stream) {
  Index idx;
  level_table::read_geometry(stream, kFormat, idx);
  return idx;
}

Index read_index(std::span<const std::byte> stream) {
  Index idx = read_geometry(stream);
  level_table::check_levels(stream, kFormat, idx, idx.codec_magic);
  return idx;
}

FieldF decompress_level(std::span<const std::byte> stream, int level, int threads) {
  OBS_SPAN("pyramid.level_decode");
  const Dim3 dims = level_dims(peek_header(stream).dims, level);
  return read_region(stream, level, tiled::full_box(dims), threads).data;
}

tiled::RegionRead read_region(std::span<const std::byte> stream, int level,
                              const tiled::Box& region, int threads) {
  const Index idx = read_index(stream);
  MRC_REQUIRE(level >= 0 && level < static_cast<int>(idx.levels.size()),
              "pyramid: level out of range");
  return tiled::read_region(idx.level_stream(stream, static_cast<std::size_t>(level)),
                            region, threads);
}

}  // namespace mrc::pyramid
