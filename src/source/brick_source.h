#pragma once

// BrickSource — one interface over the four multi-resolution containers:
// the tiled stream (MRCT), the LOD pyramid (MRCP), the adaptive stream
// (MRCA) and the progressive residual pyramid (MRCR). A source exposes the
// addressable levels with their extents, brick grids and error bounds,
// decodes single bricks, and answers region reads through the container's
// one region assembly, which takes every brick from a fetch callback:
// direct reads pass a decoding fetch, the serve-layer Dataset passes its
// brick cache. open() is the one place that dispatches on the four
// container magics. A source views the stream it was opened on; the caller
// keeps the bytes alive. MRCT and MRCA address one level (0); for MRCA that
// is the seam-free blended finest grid, and a brick's cache tag carries its
// stored level, so a re-encoded stream never aliases stale cache entries.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "progressive/progressive.h"
#include "tiled/tiled.h"

namespace mrc::source {

/// Supplies decoded brick `tile` of `level` to a region read. Called
/// concurrently from the pool lanes.
using BrickFetch = std::function<tiled::BrickPtr(int level, index_t tile)>;

class BrickSource {
 public:
  virtual ~BrickSource() = default;

  /// Addressable level count (1 for MRCT and MRCA).
  [[nodiscard]] int levels() const { return static_cast<int>(levels_.size()); }
  /// Extents of one level.
  [[nodiscard]] Dim3 dims(int level) const { return at(level).dims; }
  /// Brick grid of one level.
  [[nodiscard]] Dim3 grid(int level) const { return at(level).grid; }
  /// LOD error bound of a level: the level table's approx_err (MRCP/MRCR),
  /// the worst per-brick approx_err (MRCA, whose level 0 already mixes
  /// resolutions), or the codec bound (MRCT: no LOD).
  [[nodiscard]] double level_error(int level) const { return at(level).error; }
  /// Absolute codec error bound of the stream.
  [[nodiscard]] double eb() const { return eb_; }

  /// Identifies a brick within this source for a cache: the level in the
  /// high 16 bits, the tile id in the low 48 (the container caps total
  /// samples at 2^40, so tile counts never reach 2^48).
  [[nodiscard]] virtual std::uint64_t cache_tag(int level, index_t tile) const;

  /// Decodes one brick into the form the region assembly consumes.
  [[nodiscard]] virtual FieldF decode_brick(int level, index_t tile) const = 0;

  /// Reads `region` (in level-`level` coordinates) through the container's
  /// region assembly on `pool`, every brick from `fetch`. `hit` (if
  /// non-null) receives the brick ids of `level` the read touched.
  [[nodiscard]] virtual FieldF read(int level, const tiled::Box& region,
                                    const BrickFetch& fetch, exec::ThreadPool& pool,
                                    std::vector<index_t>* hit = nullptr) const = 0;

  /// The layered form of a read (progressive::read_layers). MRCR only;
  /// ContractError on the other containers.
  [[nodiscard]] virtual std::vector<progressive::Layer> read_layers(
      int level, const tiled::Box& region, const BrickFetch& fetch,
      exec::ThreadPool& pool, std::vector<index_t>* hit = nullptr) const;

 protected:
  struct Level {
    Dim3 dims;
    Dim3 grid;
    double error = 0.0;
  };

  /// Level `level`'s record; ContractError when out of range.
  [[nodiscard]] const Level& at(int level) const;

  double eb_ = 0.0;
  std::vector<Level> levels_;
};

/// The source factory: opens any of the four containers, dispatched on the
/// container header, parsing and validating its full index once. Throws
/// CodecError on any other stream (codec streams, snapshots, sz3mr level
/// streams, unknown magics) and on malformed input.
[[nodiscard]] std::unique_ptr<BrickSource> open(std::span<const std::byte> stream);

/// Reads `region` of `level`, decoding every brick directly on a pool of
/// `threads` lanes (0 = hardware). `decoded` (if non-null) receives the
/// number of bricks decoded.
[[nodiscard]] FieldF read(const BrickSource& src, int level, const tiled::Box& region,
                          int threads = 1, std::size_t* decoded = nullptr);

}  // namespace mrc::source
