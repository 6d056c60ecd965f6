#pragma once

// LOD pyramid container: the field stored at resolutions 1, 1/2, 1/4, ...
// so a renderer (or the serve-layer Dataset) can pull the cheapest level
// that satisfies a sample or error budget instead of always paying for the
// finest grid. Every level is a complete brick-tiled stream (tiled/tiled.h)
// — any registered codec, parallel per-brick compression on the exec pool,
// random-access region reads — and the pyramid adds a small validated level
// table in front of the concatenated level streams.
//
// Stream layout (container header v4 under kPyramidMagic): the level table
// of pyramid/level_table.h — records ending in f32 vmin, f32 vmax, f32
// approx_err — in front of the concatenated tiled (MRCT) level streams,
// finest first. The shared reader validates the table (halving chain, exact
// payload tiling, hostile level counts, nested preambles) before any nested
// stream is touched or any allocation is sized from a claim.
//
// `approx_err` is the level's fitness for adaptive LOD selection: an upper
// bound on max|prolong_trilinear(level) - finest| + codec eb, measured at
// build time. Level 0's approx_err is the codec error bound itself.

#include <array>
#include <span>
#include <string>
#include <vector>

#include "pyramid/level_table.h"
#include "tiled/tiled.h"

namespace mrc::pyramid {

/// Container-header stream id of a pyramid stream.
inline constexpr std::uint32_t kPyramidMagic = 0x5043'524d;  // "MRCP"

/// Hard cap on the level chain (shared with the progressive container).
inline constexpr int kMaxLevels = level_table::kMaxLevels;

struct Config {
  std::string codec = "interp";  ///< any registry name, applied per brick
  CodecTuning tuning;            ///< per-brick codec tuning
  index_t brick = tiled::kDefaultBrick;  ///< brick edge of every level
  int threads = 1;               ///< exec-pool lanes per level; 0 = hardware
  /// Level count; 0 = auto: halve until the coarsest level fits one brick.
  int levels = 0;
};

/// One record of the level table: the shared leading fields, then the value
/// range and the LOD error bound.
struct LevelEntry : level_table::Record {
  float vmin = 0.0f;         ///< value range over the level's samples
  float vmax = 0.0f;
  float approx_err = 0.0f;   ///< LOD error bound vs the finest grid (above)

  static constexpr std::array<float LevelEntry::*, 3> kRecordFloats{
      &LevelEntry::vmin, &LevelEntry::vmax, &LevelEntry::approx_err};
};

/// Parsed + validated level table of a pyramid stream (all levels share
/// level 0's codec).
using Index = level_table::Table<LevelEntry>;

/// Extents of level `l` of a pyramid over a `fine`-extent field.
[[nodiscard]] Dim3 level_dims(Dim3 fine, int level);

/// The auto level count: halve until the coarsest level fits in one brick
/// (always >= 1, capped at kMaxLevels).
[[nodiscard]] int auto_levels(Dim3 fine, index_t brick);

/// Max |prolong_trilinear(coarse, fine.dims()) - fine|, z-slabbed across the
/// pool. The LOD-error measurement shared by the pyramid and progressive
/// builders — a full finest-resolution pass per level, so it gets the same
/// parallelism as the compression itself.
[[nodiscard]] double prolong_error(const FieldF& coarse, const FieldF& fine,
                                   exec::ThreadPool& pool);

/// Builds the pyramid: restrict_half chain from `f`, every level brick-tiled
/// and compressed in parallel on the exec pool under the same absolute error
/// bound. Deterministic: byte-identical for any thread count.
[[nodiscard]] Bytes build(const FieldF& f, double abs_eb, const Config& cfg = {});

/// Parses and validates header + level table in O(levels) without touching
/// any nested stream (api::info's peek; also grabs level 0's codec + brick
/// via the tiled O(1) geometry peek). Throws CodecError on malformed input.
[[nodiscard]] Index read_geometry(std::span<const std::byte> stream);

/// read_geometry plus validation of every level's nested tiled preamble
/// (magic, extents, codec and eb agreement with the level table).
[[nodiscard]] Index read_index(std::span<const std::byte> stream);

/// Decodes level `level` in full (parallel across bricks; threads = 0 means
/// hardware).
[[nodiscard]] FieldF decompress_level(std::span<const std::byte> stream, int level,
                                      int threads = 1);

/// Reads `region` (in level-`level` coordinates) out of one level, decoding
/// only the intersecting bricks — bit-identical to the same window of
/// decompress_level.
[[nodiscard]] tiled::RegionRead read_region(std::span<const std::byte> stream, int level,
                                            const tiled::Box& region, int threads = 1);

}  // namespace mrc::pyramid
