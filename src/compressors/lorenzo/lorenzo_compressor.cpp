#include "compressors/lorenzo/lorenzo_compressor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "exec/thread_pool.h"
#include "compressors/quantizer.h"
#include "compressors/simd_kernels.h"
#include "compressors/simd_kernels_scalar.h"
#include "lossless/bitstream.h"
#include "lossless/lzss.h"
#include "lossless/quant_codec.h"
#include "obs/obs.h"

namespace mrc {

namespace {

using simd::Plane;
using simd::detail::lorenzo_pred;
using simd::detail::lorenzo_pred_fast;

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// Coefficient deltas wrap in two's complement. llround of an out-of-range
// plane on encode, or a hostile stream on decode, can take a difference or
// a running sum past the int64 range; unsigned arithmetic keeps that
// defined, and the bytes equal the signed ones wherever nothing overflowed.
std::int64_t wrapping_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
std::int64_t wrapping_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

struct ChunkStream {
  Bytes flags;
  Bytes coeffs;
  Bytes codes;
  Bytes outliers;
};

struct CoeffQuant {
  double pm, pg;  // precision of mean / gradient codes

  std::array<std::int64_t, 4> quantize(const Plane& p) const {
    return {std::llround(p.m / pm), std::llround(p.gx / pg), std::llround(p.gy / pg),
            std::llround(p.gz / pg)};
  }
  Plane dequantize(const std::array<std::int64_t, 4>& q) const {
    return {q[0] * pm, q[1] * pg, q[2] * pg, q[3] * pg};
  }
};

/// Per-lane buffers of predictor selection.
struct SelectScratch {
  std::vector<simd::BlockOrigin> origins;
  std::vector<std::size_t> slots;
  std::vector<simd::BlockFit> out;
};

/// Selects the predictor of every block of the z-slab [z0, z0+ez) that holds
/// at least 8 samples, into fits[by * nbx + bx] (the others stay Lorenzo).
/// The blocks reach the kernel grouped by shape (interior, x edge, y edge,
/// corner), so its lanes always hold blocks of equal extents.
void select_slab(const float* orig, const Dim3& d, index_t bs, index_t z0, index_t ez,
                 index_t zmin, std::vector<simd::BlockFit>& fits, SelectScratch& s,
                 simd::BlockScratch& scratch) {
  const index_t nbx = ceil_div(d.nx, bs), nby = ceil_div(d.ny, bs);
  fits.assign(static_cast<std::size_t>(nbx * nby), simd::BlockFit{});
  // Block-index ranges [lo, hi) of the full blocks and of the edge block.
  const index_t fx = d.nx / bs, fy = d.ny / bs;
  const std::array<std::array<index_t, 2>, 2> xr{{{0, fx}, {fx, nbx}}};
  const std::array<std::array<index_t, 2>, 2> yr{{{0, fy}, {fy, nby}}};
  for (const auto& [by0, by1] : yr)
    for (const auto& [bx0, bx1] : xr) {
      if (by0 == by1 || bx0 == bx1) continue;
      const index_t ey = std::min(bs, d.ny - by0 * bs);
      const index_t ex = std::min(bs, d.nx - bx0 * bs);
      if (ex * ey * ez < 8) continue;
      s.origins.clear();
      s.slots.clear();
      for (index_t by = by0; by < by1; ++by)
        for (index_t bx = bx0; bx < bx1; ++bx) {
          s.origins.push_back({bx * bs, by * bs, z0});
          s.slots.push_back(static_cast<std::size_t>(by * nbx + bx));
        }
      s.out.resize(s.origins.size());
      simd::select_blocks(orig, d.nx, d.ny, zmin, s.origins.data(), s.origins.size(), ex,
                          ey, ez, s.out.data(), scratch);
      for (std::size_t t = 0; t < s.slots.size(); ++t) fits[s.slots[t]] = s.out[t];
    }
}

/// Blocks of one chunk, by predictor.
struct BlockTally {
  std::uint64_t regression = 0, lorenzo = 0;
};

/// Predicts and quantizes the blocks of the chunk's z-slabs [bz0, bz1):
/// one selection pass per slab, then the blocks in z, y, x order — a flag
/// bit each, coefficient deltas and one gathered run per regression block,
/// the loop-carried Lorenzo stencil over the reconstruction otherwise.
/// Writes codes[] in block order and `rec` at every sample of the chunk.
MRC_OBS_NOINLINE BlockTally encode_blocks(const LorenzoConfig& cfg, const float* orig,
                                          const Dim3& d, index_t bz0, index_t bz1,
                                          double abs_eb, lossless::BitWriter& flag_bits,
                                          Bytes& coeff_bytes, std::uint32_t* codes,
                                          float* rec, AlignedVec<float>& outliers) {
  const index_t bs = cfg.block_size;
  const index_t nbx = ceil_div(d.nx, bs), nby = ceil_div(d.ny, bs);
  const index_t zmin = bz0 * bs;
  const CoeffQuant cq{abs_eb / 2.0, abs_eb / (2.0 * static_cast<double>(bs))};
  const LinearQuantizer quant{abs_eb, cfg.quant_radius};
  ByteWriter coeff_writer(coeff_bytes);
  thread_local std::vector<simd::BlockFit> fits;
  thread_local SelectScratch sel;
  thread_local simd::BlockScratch scratch;  // sized by the block, not the field
  const detail::ScratchGuard gf(scratch.floats);
  const detail::ScratchGuard gd(scratch.doubles);
  std::array<std::int64_t, 4> prev_q{0, 0, 0, 0};
  BlockTally tally;
  for (index_t bz = bz0; bz < bz1; ++bz) {
    const index_t z0 = bz * bs;
    const index_t ez = std::min(bs, d.nz - z0);
    if (cfg.use_regression) select_slab(orig, d, bs, z0, ez, zmin, fits, sel, scratch);
    for (index_t by = 0; by < nby; ++by)
      for (index_t bx = 0; bx < nbx; ++bx) {
        const index_t x0 = bx * bs, y0 = by * bs;
        const index_t ex = std::min(bs, d.nx - x0);
        const index_t ey = std::min(bs, d.ny - y0);
        const simd::BlockFit* fit =
            cfg.use_regression ? &fits[static_cast<std::size_t>(by * nbx + bx)] : nullptr;
        const bool use_reg = fit != nullptr && fit->use_reg();
        flag_bits.write_bit(use_reg ? 1u : 0u);
        if (use_reg) {
          ++tally.regression;
          const auto q = cq.quantize(fit->plane);
          for (int t = 0; t < 4; ++t)
            coeff_writer.put_varint(zigzag(wrapping_sub(q[t], prev_q[t])));
          prev_q = q;
          const index_t idx = d.index(x0, y0, z0);
          simd::quantize_block_plane({d.nx, d.nx * d.ny, ex, ey, ez, cq.dequantize(q)},
                                     orig + idx, abs_eb, cfg.quant_radius, codes,
                                     rec + idx, outliers, scratch);
          codes += ex * ey * ez;
          continue;
        }
        ++tally.lorenzo;
        for (index_t k = 0; k < ez; ++k)
          for (index_t j = 0; j < ey; ++j) {
            const bool interior_row = y0 + j >= 1 && z0 + k >= zmin + 1;
            for (index_t i = 0; i < ex; ++i) {
              const index_t idx = d.index(x0 + i, y0 + j, z0 + k);
              const double pred =
                  interior_row && x0 + i >= 1
                      ? lorenzo_pred_fast(rec, idx, d.nx, d.nx * d.ny)
                      : lorenzo_pred(rec, d.nx, d.ny, x0 + i, y0 + j, z0 + k, zmin);
              *codes++ = quant.encode(orig[idx], pred, rec[idx], outliers);
            }
          }
      }
  }
  return tally;
}

/// Inverse of encode_blocks: reconstructs the chunk's z-slabs [bz0, bz1)
/// into `rec` from its flag bits, coefficient deltas, codes and outliers.
/// Throws CodecError when the codes or outliers run out.
MRC_OBS_NOINLINE void decode_blocks(const Dim3& d, index_t bs, index_t bz0, index_t bz1,
                                    double eb, std::uint32_t radius,
                                    lossless::BitReader& flag_bits, ByteReader& coeff_reader,
                                    std::span<const std::uint32_t> codes,
                                    std::span<const float> outliers, float* rec) {
  const index_t nbx = ceil_div(d.nx, bs), nby = ceil_div(d.ny, bs);
  const index_t zmin = bz0 * bs;
  const CoeffQuant cq{eb / 2.0, eb / (2.0 * static_cast<double>(bs))};
  const LinearQuantizer quant{eb, radius};
  thread_local simd::BlockScratch scratch;
  const detail::ScratchGuard gf(scratch.floats);
  const detail::ScratchGuard gd(scratch.doubles);
  std::size_t code_pos = 0, outlier_pos = 0;
  std::array<std::int64_t, 4> prev_q{0, 0, 0, 0};
  for (index_t bz = bz0; bz < bz1; ++bz)
    for (index_t by = 0; by < nby; ++by)
      for (index_t bx = 0; bx < nbx; ++bx) {
        const index_t x0 = bx * bs, y0 = by * bs, z0 = bz * bs;
        const index_t ex = std::min(bs, d.nx - x0);
        const index_t ey = std::min(bs, d.ny - y0);
        const index_t ez = std::min(bs, d.nz - z0);
        const auto n = static_cast<std::size_t>(ex * ey * ez);
        if (code_pos + n > codes.size()) throw CodecError("lorenzo: code underrun");

        if (flag_bits.read_bit() != 0) {
          std::array<std::int64_t, 4> q{};
          for (int t = 0; t < 4; ++t)
            q[t] = wrapping_add(prev_q[t], unzigzag(coeff_reader.get_varint()));
          prev_q = q;
          simd::dequantize_block_plane({d.nx, d.nx * d.ny, ex, ey, ez, cq.dequantize(q)},
                                       codes.data() + code_pos, eb, radius,
                                       rec + d.index(x0, y0, z0), outliers, outlier_pos,
                                       scratch);
          code_pos += n;
          continue;
        }
        for (index_t k = 0; k < ez; ++k)
          for (index_t j = 0; j < ey; ++j) {
            const bool interior_row = y0 + j >= 1 && z0 + k >= zmin + 1;
            for (index_t i = 0; i < ex; ++i) {
              const index_t idx = d.index(x0 + i, y0 + j, z0 + k);
              const double pred =
                  interior_row && x0 + i >= 1
                      ? lorenzo_pred_fast(rec, idx, d.nx, d.nx * d.ny)
                      : lorenzo_pred(rec, d.nx, d.ny, x0 + i, y0 + j, z0 + k, zmin);
              rec[idx] = quant.decode(codes[code_pos++], pred, outliers, outlier_pos);
            }
          }
      }
}

}  // namespace

LorenzoCompressor::LorenzoCompressor(LorenzoConfig cfg) : cfg_(cfg) {
  MRC_REQUIRE(cfg_.block_size >= 2, "block size too small");
  MRC_REQUIRE(cfg_.quant_radius >= 2, "quant radius too small");
  MRC_REQUIRE(cfg_.chunks >= 1, "bad chunk count");
}

std::string LorenzoCompressor::name() const {
  return cfg_.chunks > 1 ? "lorenzo(mt)" : "lorenzo";
}

Bytes LorenzoCompressor::compress(const FieldF& f, double abs_eb) const {
  MRC_REQUIRE(abs_eb > 0.0, "error bound must be positive");
  MRC_REQUIRE(!f.empty(), "empty field");
  const Dim3 d = f.dims();
  const index_t bs = cfg_.block_size;
  const index_t nbz = ceil_div(d.nz, bs);
  const int n_chunks = static_cast<int>(std::min<index_t>(cfg_.chunks, nbz));

  // Every block writes all of its samples, and the Lorenzo stencil reads
  // only samples of earlier blocks or earlier in the block (or none below
  // the chunk's zmin), so the reconstruction needs no zero-fill.
  FieldF recon(d, uninit);
  std::vector<ChunkStream> chunks(static_cast<std::size_t>(n_chunks));
  const float* orig = f.data();

  exec::ThreadPool pool(std::min(n_chunks, exec::hardware_threads()));
  pool.parallel_for(n_chunks, [&](index_t c) {
    const index_t bz0 = nbz * c / n_chunks;
    const index_t bz1 = nbz * (c + 1) / n_chunks;
    const index_t zmin = bz0 * bs;

    lossless::BitWriter flag_bits;
    Bytes coeff_bytes;
    // Per-lane scratch, reused when several chunks land on one pool lane;
    // 64-byte aligned for the SIMD kernels.
    thread_local AlignedVec<std::uint32_t> codes;
    thread_local AlignedVec<float> outliers;
    const detail::ScratchGuard gc(codes);
    const detail::ScratchGuard go(outliers);
    codes.resize(static_cast<std::size_t>(
        (std::min(bz1 * bs, d.nz) - zmin) * d.nx * d.ny));
    outliers.clear();

    static obs::Counter& ns_pq =
        obs::Registry::global().counter("mrc.codec.predict_quant_ns");
    static obs::Counter& ns_ent =
        obs::Registry::global().counter("mrc.codec.entropy_ns");
    static obs::Counter& ns_ll =
        obs::Registry::global().counter("mrc.codec.lossless_ns");
    static obs::Counter& blocks_reg =
        obs::Registry::global().counter("mrc.codec.lorenzo.blocks_regression");
    static obs::Counter& blocks_lor =
        obs::Registry::global().counter("mrc.codec.lorenzo.blocks_lorenzo");
    {
      OBS_SPAN("lorenzo.predict_quant", &ns_pq);
      const BlockTally tally =
          encode_blocks(cfg_, orig, d, bz0, bz1, abs_eb, flag_bits, coeff_bytes,
                        codes.data(), recon.data(), outliers);
      blocks_reg.add(tally.regression);
      blocks_lor.add(tally.lorenzo);
    }
    auto& cs = chunks[static_cast<std::size_t>(c)];
    cs.flags = flag_bits.take();
    {
      OBS_SPAN("lorenzo.lossless", &ns_ll);
      cs.coeffs = lossless::lzss_compress(coeff_bytes);
      cs.outliers = lossless::lzss_compress(std::as_bytes(std::span<const float>(outliers)));
    }
    {
      OBS_SPAN("lorenzo.entropy", &ns_ent);
      cs.codes = lossless::encode_quant_codes_sharded(codes, cfg_.quant_radius,
                                                      cfg_.entropy_shards);
    }
  });

  // Header entropy-layout minor version: the widest shard count any chunk
  // actually negotiated (the chunk cell counts are closed-form, so this
  // agrees with what encode_quant_codes_sharded emitted above).
  std::uint32_t header_shards = 1;
  for (int c = 0; c < n_chunks; ++c) {
    const index_t bz0 = nbz * c / n_chunks;
    const index_t bz1 = nbz * (c + 1) / n_chunks;
    const auto cells = static_cast<std::uint64_t>(
        (std::min(bz1 * bs, d.nz) - bz0 * bs) * d.nx * d.ny);
    header_shards = std::max(
        header_shards, lossless::negotiate_entropy_shards(cells, cfg_.entropy_shards));
  }

  Bytes out;
  ByteWriter w(out);
  detail::write_header(w, kMagic, d, abs_eb, header_shards);
  w.put_varint(static_cast<std::uint64_t>(bs));
  w.put_varint(cfg_.quant_radius);
  w.put(static_cast<std::uint8_t>(cfg_.use_regression ? 1 : 0));
  w.put_varint(static_cast<std::uint64_t>(n_chunks));
  for (const auto& cs : chunks) {
    w.put_blob(cs.flags);
    w.put_blob(cs.coeffs);
    w.put_blob(cs.codes);
    w.put_blob(cs.outliers);
  }
  return out;
}

FieldF LorenzoCompressor::decompress(std::span<const std::byte> stream) const {
  ByteReader r(stream);
  const auto h = detail::read_header(r, kMagic, "lorenzo");
  const auto bs = static_cast<index_t>(r.get_varint());
  const auto radius = static_cast<std::uint32_t>(r.get_varint());
  (void)r.get<std::uint8_t>();  // use_regression flag (informational)
  const auto n_chunks = static_cast<int>(r.get_varint());
  const Dim3 d = h.dims;
  if (bs < 2) throw CodecError("lorenzo: bad block size");
  const index_t nbz = ceil_div(d.nz, bs);
  if (n_chunks < 1 || n_chunks > nbz) throw CodecError("lorenzo: bad chunk count");

  struct ChunkIn {
    std::span<const std::byte> flags, coeffs, codes, outliers;
  };
  std::vector<ChunkIn> chunk_in(static_cast<std::size_t>(n_chunks));
  for (auto& ci : chunk_in) {
    ci.flags = r.get_blob();
    ci.coeffs = r.get_blob();
    ci.codes = r.get_blob();
    ci.outliers = r.get_blob();
  }

  FieldF recon(d, uninit);  // every sample written by its chunk (see compress)

  exec::ThreadPool pool(std::min(n_chunks, exec::hardware_threads()));
  pool.parallel_for(n_chunks, [&](index_t c) {
   try {
    const index_t bz0 = nbz * c / n_chunks;
    const index_t bz1 = nbz * (c + 1) / n_chunks;
    const auto& ci_in = chunk_in[static_cast<std::size_t>(c)];

    static obs::Counter& ns_pq =
        obs::Registry::global().counter("mrc.codec.predict_quant_ns");
    static obs::Counter& ns_ent =
        obs::Registry::global().counter("mrc.codec.entropy_ns");
    static obs::Counter& ns_ll =
        obs::Registry::global().counter("mrc.codec.lossless_ns");

    lossless::BitReader flag_bits(ci_in.flags);
    const auto coeff_raw = [&] {
      OBS_SPAN("lorenzo.lossless", &ns_ll);
      return lossless::lzss_decompress(ci_in.coeffs);
    }();
    ByteReader coeff_reader(coeff_raw);
    // Per-lane scratch; the chunk's cell count is a closed-form function of
    // its z-slab, and decode_quant_codes_into validates the stream's count
    // against it before sizing the buffer.
    thread_local AlignedVec<std::uint32_t> codes;
    thread_local AlignedVec<float> outliers;
    const detail::ScratchGuard gc(codes);
    const detail::ScratchGuard go(outliers);
    {
      OBS_SPAN("lorenzo.entropy", &ns_ent);
      lossless::decode_quant_codes_into(
          ci_in.codes, radius, codes,
          static_cast<std::uint64_t>((std::min(bz1 * bs, d.nz) - bz0 * bs) * d.nx * d.ny));
    }
    {
      OBS_SPAN("lorenzo.lossless", &ns_ll);
      const auto outlier_raw = lossless::lzss_decompress(ci_in.outliers);
      if (outlier_raw.size() % sizeof(float) != 0)
        throw CodecError("lorenzo: bad outlier blob");
      outliers.resize(outlier_raw.size() / sizeof(float));
      // Zero outliers: outliers.data() may be null.
      if (!outliers.empty())
        std::memcpy(outliers.data(), outlier_raw.data(), outlier_raw.size());
    }

    {
      OBS_SPAN("lorenzo.predict_recon", &ns_pq);
      decode_blocks(d, bs, bz0, bz1, h.eb, radius, flag_bits, coeff_reader, codes,
                    std::span<const float>(outliers.data(), outliers.size()),
                    recon.data());
    }
   } catch (...) {
     throw CodecError("lorenzo: corrupt chunk stream");
   }
  });
  return recon;
}

}  // namespace mrc
