#include "source/brick_source.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "adaptive/adaptive.h"
#include "exec/thread_pool.h"
#include "pyramid/pyramid.h"

namespace mrc::source {

const BrickSource::Level& BrickSource::at(int level) const {
  MRC_REQUIRE(level >= 0 && level < levels(), "source: level out of range");
  return levels_[static_cast<std::size_t>(level)];
}

std::uint64_t BrickSource::cache_tag(int level, index_t tile) const {
  return (static_cast<std::uint64_t>(level) << 48) | static_cast<std::uint64_t>(tile);
}

std::vector<progressive::Layer> BrickSource::read_layers(int, const tiled::Box&,
                                                         const BrickFetch&,
                                                         exec::ThreadPool&,
                                                         std::vector<index_t>*) const {
  throw ContractError("source: layered reads need a progressive (MRCR) stream");
}

namespace {

/// MRCT, MRCP and MRCR: every level is a tiled stream — the whole stream,
/// or one nested in the level table — read through the tiled assembly.
class TiledLevels : public BrickSource {
 public:
  /// MRCT: one level and no LOD, so its error is the codec bound.
  explicit TiledLevels(std::span<const std::byte> stream) {
    add(stream, 0.0);
    eb_ = levels_[0].error = readers_[0].index.eb;
  }

  /// MRCP / MRCR: one level per level-table record.
  template <class Entry>
  TiledLevels(const level_table::Table<Entry>& table, std::span<const std::byte> stream) {
    eb_ = table.eb;
    for (std::size_t l = 0; l < table.levels.size(); ++l)
      add(table.level_stream(stream, l), table.levels[l].approx_err);
  }

  [[nodiscard]] FieldF decode_brick(int level, index_t tile) const override {
    return reader(level).decode(tile);
  }

  [[nodiscard]] FieldF read(int level, const tiled::Box& region, const BrickFetch& fetch,
                            exec::ThreadPool& pool,
                            std::vector<index_t>* hit) const override {
    return tiled::assemble(
        reader(level).index, region, [&](index_t t) { return fetch(level, t); }, pool, hit);
  }

 private:
  void add(std::span<const std::byte> bytes, double error) {
    const tiled::Reader& r = readers_.emplace_back(bytes);
    levels_.push_back({r.index.dims, r.index.grid, error});
  }

  [[nodiscard]] const tiled::Reader& reader(int level) const {
    (void)at(level);
    return readers_[static_cast<std::size_t>(level)];
  }

  std::vector<tiled::Reader> readers_;  ///< per level, finest first
};

/// Bricks hold residual samples below the coarsest level (data samples
/// there); the reconstruction chain runs above the fetch, in fold.
class ProgressiveSource final : public TiledLevels {
 public:
  ProgressiveSource(progressive::Index idx, std::span<const std::byte> stream)
      : TiledLevels(idx, stream), idx_(std::move(idx)) {}

  [[nodiscard]] FieldF read(int level, const tiled::Box& region, const BrickFetch& fetch,
                            exec::ThreadPool& pool,
                            std::vector<index_t>* hit) const override {
    return progressive::fold(read_layers(level, region, fetch, pool, hit));
  }

  [[nodiscard]] std::vector<progressive::Layer> read_layers(
      int level, const tiled::Box& region, const BrickFetch& fetch,
      exec::ThreadPool& pool, std::vector<index_t>* hit) const override {
    return progressive::read_layers(
        idx_, level, region,
        [&](int l, const tiled::Box& box, std::vector<index_t>* h) {
          return TiledLevels::read(l, box, fetch, pool, h);
        },
        hit);
  }

 private:
  progressive::Index idx_;
};

/// One addressable level: the seam-free blended finest grid. Bricks are
/// decoded to their fine-resolution renditions (the decoded samples at
/// level 0, the trilinear prolongation for coarse bricks).
class AdaptiveSource final : public BrickSource {
 public:
  explicit AdaptiveSource(std::span<const std::byte> stream) : reader_(stream) {
    const adaptive::Index& idx = reader_.index;
    eb_ = idx.eb;
    double worst = eb_;
    for (const adaptive::BrickEntry& e : idx.bricks)
      worst = std::max(worst, static_cast<double>(e.approx_err));
    levels_.push_back({idx.dims, idx.grid, worst});
  }

  [[nodiscard]] std::uint64_t cache_tag(int /*level*/, index_t tile) const override {
    return BrickSource::cache_tag(
        reader_.index.bricks[static_cast<std::size_t>(tile)].level, tile);
  }

  [[nodiscard]] FieldF decode_brick(int level, index_t tile) const override {
    (void)at(level);
    return reader_.decode(tile);
  }

  [[nodiscard]] FieldF read(int level, const tiled::Box& region, const BrickFetch& fetch,
                            exec::ThreadPool& pool,
                            std::vector<index_t>* hit) const override {
    (void)at(level);
    return adaptive::assemble(
        reader_.index, region, [&](index_t t) { return fetch(0, t); }, pool, hit);
  }

 private:
  adaptive::Reader reader_;
};

}  // namespace

std::unique_ptr<BrickSource> open(std::span<const std::byte> stream) {
  switch (peek_header(stream).codec_magic) {
    case tiled::kTiledMagic:
      return std::make_unique<TiledLevels>(stream);
    case pyramid::kPyramidMagic:
      return std::make_unique<TiledLevels>(pyramid::read_index(stream), stream);
    case adaptive::kAdaptiveMagic:
      return std::make_unique<AdaptiveSource>(stream);
    case progressive::kProgressiveMagic:
      return std::make_unique<ProgressiveSource>(progressive::read_index(stream), stream);
    default:
      throw CodecError("not a brick container stream (MRCT, MRCP, MRCA or MRCR)");
  }
}

FieldF read(const BrickSource& src, int level, const tiled::Box& region, int threads,
            std::size_t* decoded) {
  std::atomic<std::size_t> n{0};
  exec::ThreadPool pool(threads);
  FieldF out = src.read(
      level, region,
      [&](int l, index_t t) {
        n.fetch_add(1, std::memory_order_relaxed);
        return std::make_shared<const FieldF>(src.decode_brick(l, t));
      },
      pool);
  if (decoded != nullptr) *decoded = n.load();
  return out;
}

}  // namespace mrc::source
