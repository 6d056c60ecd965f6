#pragma once

// Adaptive multi-resolution container (MRCA): the field split into bricks on
// the same lattice as the tiled container, but every brick stored at its own
// resolution level, chosen per brick by an importance map — halo membership
// (analysis/halo_finder), gradient magnitude (grid/field_ops), explicit ROI
// boxes, or any caller-supplied score field. Scientifically important bricks
// stay at level 0 (full resolution, byte-identical to the tiled container);
// the rest are restricted 2^level-fold before compression, so storage cost
// scales with *information*, not volume (paper's regionally adaptive
// reduction, Wang et al. SC 2024).
//
// Stream layout (container header v5 under kAdaptiveMagic):
//   shared container header      finest-grid extents + absolute error bound
//   varint  brick                core brick edge (finest-grid samples)
//   varint  overlap              level-0 samples past each high face (1)
//   u32     inner codec magic    registry id every brick was encoded with
//   varint  n_levels             1 + max per-brick level in the stream
//   varint  ntx, nty, ntz        brick grid (must equal blocks_for(dims, brick))
//   varint  payload_bytes        total size of the brick payload section
//   per brick (x fastest):       varint level, varint offset, varint length,
//                                varint sx,sy,sz (stored extents at `level`),
//                                f32 vmin, f32 vmax, f32 approx_err
//   payload                      concatenated self-describing brick streams
//
// Per-brick storage. A brick at core origin o covers the fine region
// [o, o + min(brick + (overlap << level), dims - o)) — the overlap scales
// with the level so one *coarse* sample of decode redundancy always spans
// the seam. Level-0 bricks store that region directly (identical bytes to
// tiled::compress at the same settings). Coarser bricks store the region
// restricted `level` times: each step pads odd extents to even with one
// linearly extrapolated layer (merge/padding, the paper's padding
// improvement — a clipped-box average at an odd edge is exactly the
// boundary artifact it removes) and then box-averages 2x2x2 (restrict_half
// semantics), so stored extents are ceil_div(fine extents, 2^level).
//
// Seam-free reconstruction. The value of fine sample x is a pure function
// of the stream — never of the query box — so any two read_region calls
// agree on every shared sample:
//   * owner brick (the one whose core contains x) at level 0: the decoded
//     sample itself, bit-identical to the tiled container;
//   * owner at level > 0: the mean of R_b(x) over *every* brick b whose
//     stored fine region covers x — the owner plus any low-side neighbors
//     whose overlap reaches x — where R_b is the brick's decoded data
//     prolonged trilinearly back to its fine region (or the decoded data
//     itself for level-0 neighbors). Blending the prolongations across the
//     level boundary is what removes the seam: the coarse side is pulled
//     toward the neighbor's rendition of the shared samples.
//
// The per-brick index is fully validated on read — grid shape, per-brick
// level against n_levels and the brick edge, stored extents against the
// closed-form chain above, offset/length bounds, payload size — so corrupt
// or hostile streams fail with CodecError before any allocation is sized
// from an unvalidated claim.

#include <span>
#include <string>
#include <vector>

#include "grid/field.h"
#include "merge/padding.h"
#include "tiled/tiled.h"

namespace mrc::adaptive {

/// Container-header stream id of an adaptive stream.
inline constexpr std::uint32_t kAdaptiveMagic = 0x4143'524d;  // "MRCA"

/// Hard cap on per-brick levels (n_levels <= kMaxLevels); deeper claims are
/// hostile by construction and the real bound is max_level(brick) anyway.
inline constexpr int kMaxLevels = 20;

/// Samples of overlap past each high face at level 0; a brick at level l
/// stores (kOverlap << l) fine samples of overlap = kOverlap coarse samples.
inline constexpr index_t kOverlap = tiled::kOverlap;

/// The coarsest level a brick edge supports: the scaled overlap must not
/// reach past the next brick, i.e. (kOverlap << level) <= brick.
[[nodiscard]] int max_level(index_t brick);

/// Per-brick level assignment over the brick grid of a field — the encoded
/// form of an importance map (level 0 = most important / full resolution).
struct LevelMap {
  Dim3 grid;                        ///< brick counts per axis
  std::vector<std::uint8_t> level;  ///< grid.size() entries, x fastest

  /// 1 + the maximum assigned level.
  [[nodiscard]] int n_levels() const;
};

/// Every brick at the same level (level 0 reproduces the tiled layout).
[[nodiscard]] LevelMap uniform_map(Dim3 dims, index_t brick, int level);

/// Bricks whose core contains any set mask cell stay at level 0, optionally
/// dilated by `dilate_bricks` bricks (26-connectivity) so the fine region
/// keeps a margin around the important cells; everything else drops to
/// `coarse_level`.
[[nodiscard]] LevelMap map_from_mask(Dim3 dims, index_t brick, const MaskField& important,
                                     int coarse_level, index_t dilate_bricks = 0);

/// Halo-driven importance: cells of the kept halos (analysis::halo_mask with
/// the same threshold / min_cells semantics) pin their bricks — plus a
/// one-brick margin — at level 0.
[[nodiscard]] LevelMap map_from_halos(const FieldF& density, index_t brick,
                                      float threshold, index_t min_cells,
                                      int coarse_level);

/// Gradient-driven importance: bricks ranked by max |∇f| over the core; the
/// top `keep_fraction` stay at level 0 (paper's top-x% ROI ranking rule).
[[nodiscard]] LevelMap map_from_gradient(const FieldF& f, index_t brick,
                                         double keep_fraction, int coarse_level);

/// Explicit ROI boxes (finest-grid coordinates): bricks whose core
/// intersects any box stay at level 0.
[[nodiscard]] LevelMap map_from_boxes(Dim3 dims, index_t brick,
                                      std::span<const tiled::Box> rois,
                                      int coarse_level);

/// Caller-supplied importance field (same extents as the data): bricks
/// ranked by max importance over the core, top `keep_fraction` kept fine.
[[nodiscard]] LevelMap map_from_field(const FieldF& importance, index_t brick,
                                      double keep_fraction, int coarse_level);

struct Config {
  std::string codec = "interp";  ///< any registry name, applied per brick
  CodecTuning tuning;            ///< per-brick codec tuning (threads forced to 1)
  index_t brick = tiled::kDefaultBrick;  ///< core brick edge, >= 1
  int threads = 1;               ///< pool lanes; 0 = hardware
  PadKind pad_kind = PadKind::linear;  ///< odd-extent pad extrapolation
};

/// One record of the brick index.
struct BrickEntry {
  int level = 0;             ///< resolution level this brick is stored at
  std::uint64_t offset = 0;  ///< within the payload section
  std::uint64_t length = 0;  ///< compressed brick stream bytes
  Coord3 origin;             ///< core origin in the finest grid (derived)
  Dim3 stored;               ///< stored extents at `level` (overlap incl.)
  float vmin = 0.0f;         ///< value range over the stored samples
  float vmax = 0.0f;
  float approx_err = 0.0f;   ///< max |recon - fine| over the core + codec eb
};

/// Parsed + validated index of an adaptive stream.
struct Index {
  Dim3 dims;          ///< finest-grid extents
  double eb = 0.0;
  index_t brick = 0;
  index_t overlap = 0;
  std::uint32_t codec_magic = 0;
  std::string codec;  ///< registry name, or hex magic if unregistered
  int n_levels = 1;   ///< 1 + max per-brick level
  Dim3 grid;          ///< brick counts per axis
  std::size_t payload_offset = 0;  ///< absolute offset of the payload section
  std::uint64_t payload_bytes = 0;
  std::vector<BrickEntry> bricks;  ///< grid.size() entries, x fastest

  /// Core origin of brick `t` on the finest grid.
  [[nodiscard]] Coord3 origin(std::size_t t) const;
  /// Core extents of brick `t` on the finest grid (clipped at the domain).
  [[nodiscard]] Dim3 core_extent(std::size_t t) const;
  /// Fine extents of brick `t`'s stored region (core + scaled overlap).
  [[nodiscard]] Dim3 fine_extent(std::size_t t) const;
};

/// Fine extents of the stored region of a brick with core origin `o` at
/// `level` — min(brick + (kOverlap << level), dims - o) per axis.
[[nodiscard]] Dim3 brick_fine_extent(const Dim3& dims, const Coord3& o, index_t brick,
                                     int level);

/// Stored (coarse) extents of the same region: ceil_div(fine, 2^level).
[[nodiscard]] Dim3 brick_stored_extent(const Dim3& dims, const Coord3& o, index_t brick,
                                       int level);

/// Splits `f` into bricks, restricts each to its assigned level and
/// compresses every brick independently on a thread pool of cfg.threads
/// lanes. Deterministic: the stream is byte-identical for any thread count,
/// and an all-level-0 map yields brick payloads byte-identical to
/// tiled::compress at the same settings.
[[nodiscard]] Bytes compress(const FieldF& f, double abs_eb, const LevelMap& levels,
                             const Config& cfg = {});

/// Parses and validates just the fixed-size preamble — dims, brick, overlap,
/// codec, n_levels, grid — in O(1), leaving `bricks` empty (api::info).
[[nodiscard]] Index read_geometry(std::span<const std::byte> stream);

/// Parses and validates header + full brick index without decoding any
/// brick. Throws CodecError on malformed streams.
[[nodiscard]] Index read_index(std::span<const std::byte> stream);

/// An adaptive stream opened for brick decodes: its bytes, its full index
/// and one stateless codec instance that serves any number of lanes.
struct Reader {
  std::span<const std::byte> bytes;
  Index index;
  std::unique_ptr<Compressor> codec;

  /// Parses and validates the full index (read_index). Throws CodecError.
  explicit Reader(std::span<const std::byte> stream);
  /// Decodes brick `t`, validates its extents against the index record and
  /// returns its fine-resolution rendition over its stored fine region: the
  /// decoded samples at level 0, their trilinear prolongation otherwise.
  /// This is the unit the region assembly and the serve-layer cache hold.
  [[nodiscard]] FieldF decode(index_t t) const;
};

/// The one seam-free region assembly, shared by read_region (direct
/// decodes) and the serve layer (cached bricks): fetches every brick the
/// read needs on the pool — the bricks whose core intersects `region`, plus
/// the low-side neighbors of every coarse one, whose scaled overlap
/// contributes to the blend; `fetch(t)` must return the
/// Reader::decode rendition of brick `t` — then blends the owner cores
/// over them. `hit` (if non-null) receives those brick ids.
[[nodiscard]] FieldF assemble(const Index& idx, const tiled::Box& region,
                              const tiled::BrickFetch& fetch, exec::ThreadPool& pool,
                              std::vector<index_t>* hit = nullptr);

/// Reads `region` (finest-grid coordinates) seam-free, decoding only the
/// bricks the read needs — bit-identical to the same window of a
/// full decompress() for any query box.
[[nodiscard]] tiled::RegionRead read_region(std::span<const std::byte> stream,
                                            const tiled::Box& region, int threads = 1);

/// Reconstructs the full finest grid (read_region over the whole domain).
[[nodiscard]] FieldF decompress(std::span<const std::byte> stream, int threads = 1);

/// Brick counts per level (size = idx.n_levels).
[[nodiscard]] std::vector<std::size_t> level_histogram(const Index& idx);

/// Compressed payload bytes per level (size = idx.n_levels).
[[nodiscard]] std::vector<std::uint64_t> level_bytes(const Index& idx);

}  // namespace mrc::adaptive
