#pragma once

// The level table shared by the LOD pyramid (MRCP) and the progressive
// residual pyramid (MRCR): both store one complete tiled (MRCT) stream per
// level of a halving chain behind the same table —
//
//   shared container header      finest-grid extents + absolute error bound
//   varint  n_levels             >= 1, halving chain
//   varint  payload_bytes        total size of the level payload section
//   per level:                   varint offset, varint length,
//                                varint nx,ny,nz (level extents),
//                                the container's f32 record fields
//   payload                      concatenated tiled streams, finest first
//
// This reader/writer owns every check the two share: the level-count cap
// and the records-must-fit check (before any allocation is sized from the
// claim), extents pinned to the halving chain, level streams tiling the
// payload exactly, payload truncation, and the cross-checks of each nested
// tiled preamble against the table. A container supplies its magic, its
// name for error messages, its trailing f32 record fields and its codec
// rule (MRCR's coarsest level may carry a codec of its own).

#include <span>
#include <string>
#include <vector>

#include "tiled/tiled.h"

namespace mrc::level_table {

/// Hard cap on the level chain: 2^40 exceeds any index_t extent, so deeper
/// claims are hostile by construction.
inline constexpr int kMaxLevels = 40;

/// A container's stream id and its name in error messages.
struct Format {
  std::uint32_t magic = 0;
  const char* name = "";
};

/// The leading fields of every level record. A container's LevelEntry
/// derives from it and lists its trailing f32 fields, in stream order, as
/// `static constexpr std::array<float Entry::*, N> kRecordFloats`.
struct Record {
  std::uint64_t offset = 0;  ///< within the payload section
  std::uint64_t length = 0;  ///< bytes of this level's tiled stream
  Dim3 dims;                 ///< level extents (= ceil_div(fine, 2^level))
};

/// Parsed + validated level table.
template <class Entry>
struct Table {
  Dim3 dims;          ///< finest-grid extents
  double eb = 0.0;    ///< absolute codec error bound (every level)
  std::string codec;  ///< per-brick codec of level 0
  std::uint32_t codec_magic = 0;
  index_t brick = 0;  ///< brick edge of level 0
  std::size_t payload_offset = 0;  ///< absolute offset of the payload section
  std::uint64_t payload_bytes = 0;
  std::vector<Entry> levels;  ///< [0] = finest

  /// The sub-span of `stream` holding level `l`'s complete tiled stream.
  [[nodiscard]] std::span<const std::byte> level_stream(std::span<const std::byte> stream,
                                                        std::size_t l) const {
    MRC_REQUIRE(l < levels.size(), "level_stream: level out of range");
    return stream.subspan(payload_offset + static_cast<std::size_t>(levels[l].offset),
                          static_cast<std::size_t>(levels[l].length));
  }

  /// O(1) peek of level `l`'s nested tiled preamble, whose extents and
  /// error bound must agree with the table — a mismatch means the table
  /// points at the wrong bytes.
  [[nodiscard]] tiled::Index nested(std::span<const std::byte> stream, std::size_t l,
                                    const Format& fmt) const {
    const tiled::Index li = tiled::read_geometry(level_stream(stream, l));
    const std::string what = std::string(fmt.name) + ": level " + std::to_string(l);
    if (li.dims != levels[l].dims)
      throw CodecError(what + " stream extents disagree with the level table");
    if (li.eb != eb) throw CodecError(what + " stream error bound disagrees with the header");
    return li;
  }
};

/// Parses and validates header + level table in O(levels), then peeks
/// level 0's nested preamble for the codec and brick edge.
template <class Entry>
void read_geometry(std::span<const std::byte> stream, const Format& fmt, Table<Entry>& t) {
  const std::string name = fmt.name;
  ByteReader r(stream);
  const auto header = mrc::detail::read_header(r, fmt.magic, fmt.name);
  t.dims = header.dims;
  t.eb = header.eb;
  const std::uint64_t n_levels = r.get_varint();
  // A hostile stream can claim any level count; the cap plus the
  // records-must-fit check bound every allocation before it is sized.
  if (n_levels < 1 || n_levels > static_cast<std::uint64_t>(kMaxLevels))
    throw CodecError(name + ": bad level count");
  t.payload_bytes = r.get_varint();
  const std::size_t min_record = 5 + sizeof(float) * Entry::kRecordFloats.size();
  if (n_levels > r.remaining() / min_record)
    throw CodecError(name + ": level count exceeds stream size");

  t.levels.resize(static_cast<std::size_t>(n_levels));
  Dim3 expect = t.dims;
  std::uint64_t next_offset = 0;
  for (std::size_t l = 0; l < t.levels.size(); ++l) {
    Entry& e = t.levels[l];
    e.offset = r.get_varint();
    e.length = r.get_varint();
    e.dims.nx = static_cast<index_t>(r.get_varint());
    e.dims.ny = static_cast<index_t>(r.get_varint());
    e.dims.nz = static_cast<index_t>(r.get_varint());
    for (float Entry::*f : Entry::kRecordFloats) e.*f = r.get<float>();
    // Levels are pinned to the halving chain and must tile the payload
    // exactly — anything else (overlapping records, gaps, extents that are
    // not the parent's half) means a corrupt or hostile table.
    if (e.dims != expect)
      throw CodecError(name + ": level " + std::to_string(l) + " extents " + e.dims.str() +
                       " off the halving chain (want " + expect.str() + ")");
    if (e.offset != next_offset || e.length == 0 || e.length > t.payload_bytes - e.offset)
      throw CodecError(name + ": level " + std::to_string(l) + " offset/length out of range");
    next_offset = e.offset + e.length;
    expect = blocks_for(expect, 2);
  }
  if (next_offset != t.payload_bytes)
    throw CodecError(name + ": level streams do not tile the payload");
  t.payload_offset = r.position();
  if (r.remaining() < t.payload_bytes) throw CodecError(name + ": payload truncated");

  const tiled::Index fine = t.nested(stream, 0, fmt);
  t.codec = fine.codec;
  t.codec_magic = fine.codec_magic;
  t.brick = fine.brick;
}

/// Validates every level's nested preamble against the table: every level
/// but the coarsest carries the table's codec, the coarsest
/// `coarsest_codec_magic`.
template <class Entry>
void check_levels(std::span<const std::byte> stream, const Format& fmt,
                  const Table<Entry>& t, std::uint32_t coarsest_codec_magic) {
  for (std::size_t l = 1; l < t.levels.size(); ++l) {
    const std::uint32_t want =
        l + 1 == t.levels.size() ? coarsest_codec_magic : t.codec_magic;
    if (t.nested(stream, l, fmt).codec_magic != want)
      throw CodecError(std::string(fmt.name) + ": level " + std::to_string(l) +
                       " codec mismatch");
  }
}

/// Serializes the table in front of the level streams (finest first),
/// filling every entry's offset and length.
template <class Entry>
Bytes write(const Format& fmt, Dim3 dims, double eb, std::vector<Entry>& entries,
            const std::vector<Bytes>& streams) {
  std::uint64_t payload_bytes = 0;
  for (std::size_t l = 0; l < entries.size(); ++l) {
    entries[l].offset = payload_bytes;
    entries[l].length = streams[l].size();
    payload_bytes += entries[l].length;
  }
  Bytes out;
  ByteWriter w(out);
  mrc::detail::write_header(w, fmt.magic, dims, eb);
  w.put_varint(entries.size());
  w.put_varint(payload_bytes);
  for (const Entry& e : entries) {
    w.put_varint(e.offset);
    w.put_varint(e.length);
    w.put_varint(static_cast<std::uint64_t>(e.dims.nx));
    w.put_varint(static_cast<std::uint64_t>(e.dims.ny));
    w.put_varint(static_cast<std::uint64_t>(e.dims.nz));
    for (float Entry::*f : Entry::kRecordFloats) w.put(e.*f);
  }
  for (const Bytes& s : streams) w.put_bytes(s);
  return out;
}

}  // namespace mrc::level_table
