#pragma once

// Progressive residual pyramid container: the coarsest level stored
// verbatim plus one residual stream per finer level, computed against the
// *reconstruction* of the level below —
//
//   residual_L = level_L - prolong_trilinear(recon(level_{L+1}))
//
// so decoding level L needs only the reconstructed L+1 and the small, spiky
// residual stream, which the quantizer+Huffman path compresses far better
// than re-storing the level outright (the MRCP pyramid pays ~15% over a
// flat stream for exactly that). Reconstruction is strictly top-down and
// bit-deterministic: recon(top) = decode(top), recon(L) =
// prolong(recon(L+1)) + decode(residual_L), every arithmetic step pinned so
// a windowed region read reproduces the same bits as a full decode.
//
// Error model (telescoped): each residual stream is compressed under the
// same absolute bound eb, and because residual_L is measured against the
// reconstruction (not the pristine level), the per-level decode error does
// NOT accumulate — recon(L) = level_L + delta_L with |delta_L| <= eb up to
// float rounding. The level table still records the conservative telescoped
// bound cum_err(L) = eb * (n_levels - L), the a-priori guarantee that holds
// compositionally without trusting the build-time measurement.
//
// Stream layout (container header v6 under kProgressiveMagic): the level
// table of pyramid/level_table.h — records ending in the six f32 fields of
// LevelEntry — in front of the concatenated tiled (MRCT) residual streams,
// finest first; the last one is the coarsest level's data stream. Residual
// levels share one codec, the data level may use another (each nested
// preamble is self-describing). The shared reader validates the table
// before any nested stream is touched or any allocation is sized from a
// claim.

#include <array>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "pyramid/pyramid.h"
#include "tiled/tiled.h"

namespace mrc::progressive {

/// Container-header stream id of a progressive residual stream.
inline constexpr std::uint32_t kProgressiveMagic = 0x5243'524d;  // "MRCR"

/// Same hard cap as the pyramid: the level table reader is shared.
inline constexpr int kMaxLevels = level_table::kMaxLevels;

/// Level extents + auto level count follow the pyramid's halving chain.
using pyramid::auto_levels;
using pyramid::level_dims;

struct Config {
  std::string codec = "interp";  ///< coarsest (data) level, any registry name
  /// Codec of the residual levels. Residuals are near-zero, spiky and
  /// spatially decorrelated; a hierarchical interpolation predictor re-learns
  /// exactly what the prolongation already removed and gains nothing (interp
  /// residual streams come out within 0.3% of the plain pyramid). Lorenzo's
  /// local predictor plus the quantizer+Huffman stage is the robust fit —
  /// measured ~7% under the pyramid at equal eb on mini-Nyx.
  std::string resid_codec = "lorenzo";
  CodecTuning tuning;            ///< per-brick codec tuning
  index_t brick = tiled::kDefaultBrick;  ///< brick edge of every level
  int threads = 1;               ///< exec-pool lanes per level; 0 = hardware
  /// Level count; 0 = auto: halve until the coarsest level fits one brick.
  int levels = 0;
};

/// One record of the level table: the shared leading fields, then the
/// level's data range, residual statistics and error bounds.
struct LevelEntry : level_table::Record {
  float vmin = 0.0f;         ///< value range over the level's *data* samples
  float vmax = 0.0f;
  float resid_max = 0.0f;      ///< max |residual| (coarsest: max |data|)
  float resid_entropy = 0.0f;  ///< Shannon bits/sample over 2eb-wide bins
  float cum_err = 0.0f;        ///< telescoped bound eb * (n_levels - level)
  float approx_err = 0.0f;     ///< LOD bound: max|prolong(level)-finest|+cum_err

  static constexpr std::array<float LevelEntry::*, 6> kRecordFloats{
      &LevelEntry::vmin,          &LevelEntry::vmax,    &LevelEntry::resid_max,
      &LevelEntry::resid_entropy, &LevelEntry::cum_err, &LevelEntry::approx_err};
};

/// Parsed + validated level table of a progressive stream. `codec` is the
/// residual levels' codec (level 0's); the coarsest (data) level may use
/// its own.
struct Index : level_table::Table<LevelEntry> {
  std::string data_codec;  ///< codec of the coarsest (data) level
  std::uint32_t data_codec_magic = 0;
};

/// One layer of a layered region read: the coarsest layer carries decoded
/// data over its box; every finer layer carries a *residual* window the
/// reader applies in place via refine. Boxes are in each layer's own level
/// coordinates and follow the prolongation-support chain (layer l+1's box
/// covers the prolongation footprint of layer l's).
struct Layer {
  int level = 0;
  Dim3 level_dims;  ///< global extents of this level (refine prolongs with these)
  tiled::Box box;
  FieldF data;
  bool residual = false;  ///< false only for the coarsest layer
};

/// Reads the stored samples of `level` over `box` (residual samples below
/// the coarsest level) through the tiled assembly — from direct decodes or
/// the serve layer's cache. `hit` (if non-null) receives the brick ids read.
using LevelRead =
    std::function<FieldF(int level, const tiled::Box& box, std::vector<index_t>* hit)>;

/// Builds the residual pyramid: restrict_half chain from `f`, the coarsest
/// level compressed verbatim, every finer level as a residual against the
/// decoded reconstruction of the level below, all through tiled::compress
/// on the exec pool. Deterministic: byte-identical for any thread count.
[[nodiscard]] Bytes build(const FieldF& f, double abs_eb, const Config& cfg = {});

/// Parses and validates header + level table in O(levels) without touching
/// any nested stream beyond O(1) geometry peeks of level 0 (residual codec +
/// brick) and the coarsest level (data codec). Throws CodecError on
/// malformed input.
[[nodiscard]] Index read_geometry(std::span<const std::byte> stream);

/// read_geometry plus validation of every level's nested tiled preamble
/// (magic, extents, codec and eb agreement with the level table).
[[nodiscard]] Index read_index(std::span<const std::byte> stream);

/// Reconstructs level `level` in full: read_region over the whole level.
/// Bit-deterministic for any thread count (threads = 0 means hardware).
[[nodiscard]] FieldF decompress_level(std::span<const std::byte> stream, int level,
                                      int threads = 1);

/// Reconstructs `region` (in level-`level` coordinates) decoding only the
/// bricks under the region's prolongation support chain — bit-identical to
/// the same window of decompress_level.
[[nodiscard]] FieldF read_region(std::span<const std::byte> stream, int level,
                                 const tiled::Box& region, int threads = 1);

/// The one layered-read assembly, shared by read_region (direct decodes)
/// and the serve layer (cached bricks): the coarsest layer's data over the
/// support chain's top box, then one residual window per finer level down
/// to `level`, coarsest first, each window from `read`. `hit` (if non-null)
/// receives the brick ids of level `level` the read touched.
[[nodiscard]] std::vector<Layer> read_layers(const Index& idx, int level,
                                             const tiled::Box& region,
                                             const LevelRead& read,
                                             std::vector<index_t>* hit = nullptr);

/// Folds layers top-down with refine — the reconstruction of the finest
/// layer's box.
[[nodiscard]] FieldF fold(std::vector<Layer> layers);

/// One refinement step: prolong the coarse window onto `fine_box` and add
/// the residual window, accumulating in double with a single float rounding
/// per sample. Every reconstruction path — build, fold (hence
/// decompress_level, read_region and serve::Dataset) and the wire client's
/// in-place refinement —
/// applies this exact expression, which is what makes them bit-identical.
[[nodiscard]] FieldF refine(const FieldF& coarse_window, const tiled::Box& coarse_box,
                            Dim3 coarse_dims, const FieldF& residual,
                            const tiled::Box& fine_box, Dim3 fine_dims);

}  // namespace mrc::progressive
