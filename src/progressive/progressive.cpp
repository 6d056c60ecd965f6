#include "progressive/progressive.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "exec/thread_pool.h"
#include "grid/field_ops.h"
#include "obs/obs.h"

namespace mrc::progressive {

namespace {

inline constexpr level_table::Format kFormat{kProgressiveMagic, "progressive"};

/// a + b per sample, accumulated in double and rounded once to float — the
/// single reconstruction step recon = prolong + residual. Build, full
/// decode, windowed reads and the wire client all go through this exact
/// expression, which is what makes every path bit-identical.
void add_into(FieldF& acc, const FieldF& add) {
  MRC_REQUIRE(acc.dims() == add.dims(), "progressive: addend extents mismatch");
  const Dim3 d = acc.dims();
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x)
        acc.at(x, y, z) = static_cast<float>(static_cast<double>(acc.at(x, y, z)) +
                                             static_cast<double>(add.at(x, y, z)));
}

/// data - base per sample (double accumulate, one float rounding).
FieldF subtract(const FieldF& data, const FieldF& base) {
  MRC_REQUIRE(data.dims() == base.dims(), "progressive: residual extents mismatch");
  const Dim3 d = data.dims();
  FieldF out(d);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x)
        out.at(x, y, z) = static_cast<float>(static_cast<double>(data.at(x, y, z)) -
                                             static_cast<double>(base.at(x, y, z)));
  return out;
}

float max_abs(const FieldF& f) {
  const auto [lo, hi] = f.min_max();
  return std::max(std::abs(lo), std::abs(hi));
}

/// Shannon entropy (bits/sample) of the field quantized into 2*eb-wide bins
/// — the same bin width the quantizer uses, so this estimates the entropy
/// the Huffman stage actually sees. Recorded per level for `mrcc
/// progressive`'s table.
float bin_entropy(const FieldF& f, double eb) {
  std::unordered_map<long long, std::uint64_t> bins;
  const Dim3 d = f.dims();
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x)
        ++bins[std::llround(static_cast<double>(f.at(x, y, z)) / (2.0 * eb))];
  const double n = static_cast<double>(d.size());
  double h = 0.0;
  for (const auto& [bin, count] : bins) {
    const double p = static_cast<double>(count) / n;
    h -= p * std::log2(p);
  }
  return static_cast<float>(h);
}

/// The prolongation-support chain of a region read: boxes[level] = region,
/// boxes[l+1] = the coarse footprint prolong_trilinear needs for boxes[l]
/// (levels below `level` are left empty). A layered read assembles exactly
/// these boxes.
std::vector<tiled::Box> support_chain(const Index& idx, int level,
                                      const tiled::Box& region) {
  MRC_REQUIRE(level >= 0 && level < static_cast<int>(idx.levels.size()),
              "progressive: level out of range");
  const int top = static_cast<int>(idx.levels.size()) - 1;
  std::vector<tiled::Box> boxes(idx.levels.size());
  boxes[static_cast<std::size_t>(level)] = region;
  for (int l = level; l < top; ++l) {
    const tiled::Box& b = boxes[static_cast<std::size_t>(l)];
    const SupportBox s =
        prolong_support(idx.levels[static_cast<std::size_t>(l + 1)].dims,
                        idx.levels[static_cast<std::size_t>(l)].dims, b.lo, b.extent());
    boxes[static_cast<std::size_t>(l + 1)] = {
        s.origin,
        {s.origin.x + s.extent.nx, s.origin.y + s.extent.ny, s.origin.z + s.extent.nz}};
  }
  return boxes;
}

}  // namespace

FieldF refine(const FieldF& coarse_window, const tiled::Box& coarse_box,
              Dim3 coarse_dims, const FieldF& residual, const tiled::Box& fine_box,
              Dim3 fine_dims) {
  MRC_REQUIRE(coarse_window.dims() == coarse_box.extent() &&
                  residual.dims() == fine_box.extent(),
              "progressive: refine window extents mismatch");
  FieldF prolonged = prolong_trilinear_region(coarse_window, coarse_box.lo, coarse_dims,
                                              fine_dims, fine_box.lo,
                                              fine_box.extent());
  add_into(prolonged, residual);
  return prolonged;
}

Bytes build(const FieldF& f, double abs_eb, const Config& cfg) {
  MRC_REQUIRE(!f.empty(), "progressive: empty field");
  MRC_REQUIRE(abs_eb > 0.0, "progressive: error bound must be positive");
  MRC_REQUIRE(cfg.brick >= 1, "progressive: brick edge must be >= 1");
  MRC_REQUIRE(cfg.levels >= 0 && cfg.levels <= kMaxLevels,
              "progressive: level count must be in [0, " + std::to_string(kMaxLevels) +
                  "]");
  const Dim3 d = f.dims();
  const int n_levels = cfg.levels == 0 ? auto_levels(d, cfg.brick) : cfg.levels;

  tiled::Config tc;
  tc.codec = cfg.codec;
  tc.tuning = cfg.tuning;
  tc.brick = cfg.brick;
  tc.threads = cfg.threads;
  tiled::Config tc_resid = tc;
  tc_resid.codec = cfg.resid_codec;

  // The restrict_half chain, materialized coarse-to-fine is not needed —
  // levels() holds l >= 1, level 0 reads straight from f.
  std::vector<FieldF> chain(static_cast<std::size_t>(n_levels));
  for (int l = 1; l < n_levels; ++l)
    chain[static_cast<std::size_t>(l)] =
        restrict_half(l == 1 ? f : chain[static_cast<std::size_t>(l - 1)]);
  auto level_data = [&](int l) -> const FieldF& {
    return l == 0 ? f : chain[static_cast<std::size_t>(l)];
  };

  std::vector<Bytes> streams(static_cast<std::size_t>(n_levels));
  std::vector<LevelEntry> entries(static_cast<std::size_t>(n_levels));
  exec::ThreadPool pool(cfg.threads);

  // Top-down with the decoder in the loop: each residual is measured against
  // the *reconstruction* the reader will actually have, so per-level decode
  // error stays at eb instead of accumulating down the chain.
  FieldF recon;
  for (int l = n_levels - 1; l >= 0; --l) {
    const FieldF& data = level_data(l);
    LevelEntry& e = entries[static_cast<std::size_t>(l)];
    e.dims = data.dims();
    const auto [lo, hi] = data.min_max();
    e.vmin = lo;
    e.vmax = hi;
    e.cum_err = static_cast<float>(abs_eb * (n_levels - l));
    e.approx_err = static_cast<float>(
        l == 0 ? static_cast<double>(e.cum_err)
               : pyramid::prolong_error(data, f, pool) + static_cast<double>(e.cum_err));

    OBS_SPAN("progressive.level_compress");
    if (l == n_levels - 1) {
      // Coarsest level: stored verbatim; "residual" stats describe the data.
      e.resid_max = max_abs(data);
      e.resid_entropy = bin_entropy(data, abs_eb);
      streams[static_cast<std::size_t>(l)] = tiled::compress(data, abs_eb, tc);
      recon = tiled::decompress(streams[static_cast<std::size_t>(l)], cfg.threads);
    } else {
      FieldF prolonged = prolong_trilinear(recon, data.dims());
      const FieldF resid = subtract(data, prolonged);
      e.resid_max = max_abs(resid);
      e.resid_entropy = bin_entropy(resid, abs_eb);
      streams[static_cast<std::size_t>(l)] = tiled::compress(resid, abs_eb, tc_resid);
      if (l > 0) {
        add_into(prolonged,
                 tiled::decompress(streams[static_cast<std::size_t>(l)], cfg.threads));
        recon = std::move(prolonged);
      }
    }
  }

  return level_table::write(kFormat, d, abs_eb, entries, streams);
}

Index read_geometry(std::span<const std::byte> stream) {
  Index idx;
  level_table::read_geometry(stream, kFormat, idx);
  // Residuals and data carry different statistics and may use different
  // codecs: the coarsest level's preamble supplies the data codec.
  const tiled::Index coarse = idx.nested(stream, idx.levels.size() - 1, kFormat);
  idx.data_codec = coarse.codec;
  idx.data_codec_magic = coarse.codec_magic;
  return idx;
}

Index read_index(std::span<const std::byte> stream) {
  Index idx = read_geometry(stream);
  level_table::check_levels(stream, kFormat, idx, idx.data_codec_magic);
  return idx;
}

std::vector<Layer> read_layers(const Index& idx, int level, const tiled::Box& region,
                               const LevelRead& read, std::vector<index_t>* hit) {
  const auto boxes = support_chain(idx, level, region);
  const int top = static_cast<int>(idx.levels.size()) - 1;
  std::vector<Layer> layers;
  layers.reserve(static_cast<std::size_t>(top - level + 1));
  for (int l = top; l >= level; --l) {
    OBS_SPAN("progressive.layer");
    const auto li = static_cast<std::size_t>(l);
    layers.push_back({l, idx.levels[li].dims, boxes[li],
                      read(l, boxes[li], l == level ? hit : nullptr), l != top});
  }
  return layers;
}

FieldF fold(std::vector<Layer> layers) {
  FieldF window = std::move(layers.front().data);
  for (std::size_t i = 1; i < layers.size(); ++i) {
    const Layer& coarse = layers[i - 1];
    const Layer& fine = layers[i];
    window = refine(window, coarse.box, coarse.level_dims, fine.data, fine.box,
                    fine.level_dims);
  }
  return window;
}

FieldF decompress_level(std::span<const std::byte> stream, int level, int threads) {
  const Dim3 dims = level_dims(peek_header(stream).dims, level);
  return read_region(stream, level, tiled::full_box(dims), threads);
}

FieldF read_region(std::span<const std::byte> stream, int level,
                   const tiled::Box& region, int threads) {
  const Index idx = read_index(stream);
  std::vector<tiled::Reader> levels;
  levels.reserve(idx.levels.size());
  for (std::size_t l = 0; l < idx.levels.size(); ++l)
    levels.emplace_back(idx.level_stream(stream, l));
  exec::ThreadPool pool(threads);
  OBS_SPAN("progressive.level_decode");
  return fold(read_layers(idx, level, region,
                          [&](int l, const tiled::Box& box, std::vector<index_t>* hit) {
                            const tiled::Reader& r = levels[static_cast<std::size_t>(l)];
                            return tiled::assemble(r.index, box, r.direct(), pool, hit);
                          }));
}

}  // namespace mrc::progressive
