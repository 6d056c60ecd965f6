#include "serve/dataset.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace mrc::serve {

namespace {

/// Brick key within one dataset: level in the high bits, tile id in the low
/// 48 (the container caps total samples at 2^40, so tile counts never reach
/// 2^48).
std::uint64_t brick_key(int level, index_t tile) {
  return (static_cast<std::uint64_t>(level) << 48) |
         static_cast<std::uint64_t>(tile);
}

}  // namespace

struct Dataset::Impl {
  // -- immutable after construction -----------------------------------------
  Bytes stream;
  Config cfg;
  Dataset::Kind kind = Dataset::Kind::pyramid;
  pyramid::Index pidx;             ///< pyramid datasets only
  progressive::Index gidx;         ///< progressive datasets only
  std::vector<tiled::Index> lidx;  ///< per-level tile index (pyramid /
                                   ///< progressive); one entry for tiled
  adaptive::Index aidx;            ///< adaptive datasets only
  double adaptive_worst_err = 0.0; ///< max per-brick approx_err (adaptive)
  std::unique_ptr<Compressor> codec;  ///< stateless; shared by all lanes
  /// Progressive datasets may store the coarsest (data) level under a
  /// different codec than the residual levels; null when they share one.
  std::unique_ptr<Compressor> data_codec;

  // -- shared serving resources ---------------------------------------------
  // The cache is declared before the pool: when this Impl owns both (the
  // standalone ctor), the pool is destroyed first, so queued prefetch tasks
  // drain while the cache they reference is still alive.
  std::shared_ptr<BrickCache> cache;
  std::shared_ptr<exec::ThreadPool> pool;
  std::uint32_t ds_id = 0;
  /// Set in ~Impl: prefetch closures queued in the cache still run during
  /// the teardown drain, but they skip the pointless decode.
  std::atomic<bool> shutting_down{false};

  Impl(Bytes s, const Config& c, std::shared_ptr<BrickCache> sh_cache,
       std::shared_ptr<exec::ThreadPool> sh_pool)
      : stream(std::move(s)), cfg(c) {
    if (sh_cache == nullptr) {
      MRC_REQUIRE(sh_pool == nullptr,
                  "serve: shared cache and pool come as a pair");
      MRC_REQUIRE(cfg.cache_bytes >= 1, "serve: cache byte budget must be >= 1");
      cache = std::make_shared<BrickCache>(cfg.cache_bytes, cfg.shards);
      pool = std::make_shared<exec::ThreadPool>(cfg.threads);
    } else {
      MRC_REQUIRE(sh_pool != nullptr,
                  "serve: shared cache and pool come as a pair");
      cache = std::move(sh_cache);
      pool = std::move(sh_pool);
    }
    ds_id = cache->register_dataset();

    const StreamHeader h = peek_header(stream);
    if (h.codec_magic == adaptive::kAdaptiveMagic) {
      kind = Dataset::Kind::adaptive;
      aidx = adaptive::read_index(stream);
      codec = registry().make_for_magic(aidx.codec_magic);
      adaptive_worst_err = aidx.eb;
      for (const adaptive::BrickEntry& e : aidx.bricks)
        adaptive_worst_err =
            std::max(adaptive_worst_err, static_cast<double>(e.approx_err));
    } else if (h.codec_magic == tiled::kTiledMagic) {
      kind = Dataset::Kind::tiled;
      lidx.push_back(tiled::read_index(stream));
      codec = registry().make_for_magic(lidx[0].codec_magic);
    } else if (h.codec_magic == progressive::kProgressiveMagic) {
      kind = Dataset::Kind::progressive;
      gidx = progressive::read_index(stream);
      lidx.reserve(gidx.levels.size());
      for (std::size_t l = 0; l < gidx.levels.size(); ++l)
        lidx.push_back(tiled::read_index(gidx.level_stream(stream, l)));
      codec = registry().make_for_magic(gidx.codec_magic);
      if (gidx.data_codec_magic != gidx.codec_magic)
        data_codec = registry().make_for_magic(gidx.data_codec_magic);
    } else {
      kind = Dataset::Kind::pyramid;
      pidx = pyramid::read_index(stream);
      lidx.reserve(pidx.levels.size());
      for (std::size_t l = 0; l < pidx.levels.size(); ++l)
        lidx.push_back(tiled::read_index(pidx.level_stream(stream, l)));
      codec = registry().make_for_magic(pidx.codec_magic);
    }
  }

  ~Impl() {
    // Prefetch closures queued in the cache reference this Impl; block until
    // every decode of this dataset has been claimed or drained before any
    // member dies. The flag turns the drained decodes into no-ops, so
    // teardown is bounded by in-flight work, not the whole backlog.
    shutting_down.store(true, std::memory_order_relaxed);
    cache->wait_idle(ds_id);
    cache->drop(ds_id);  // a shared cache hands the budget back immediately
  }

  /// Brick grid the prefetch ring walks (per level for pyramids, the single
  /// tile grid for tiled and adaptive streams).
  [[nodiscard]] const Dim3& grid_of(int level) const {
    return kind == Dataset::Kind::adaptive
               ? aidx.grid
               : lidx[static_cast<std::size_t>(level)].grid;
  }

  /// Cache key of one brick. For adaptive streams the key carries the
  /// brick's own stored level, so a re-encoded stream with different level
  /// assignments never aliases stale cache entries of the same tile id.
  [[nodiscard]] CacheKey key_of(int level, index_t tile) const {
    if (kind == Dataset::Kind::adaptive)
      return {ds_id,
              brick_key(aidx.bricks[static_cast<std::size_t>(tile)].level, tile)};
    return {ds_id, brick_key(level, tile)};
  }

  BrickPtr decode(int level, index_t tile) {
    if (kind == Dataset::Kind::adaptive) {
      const auto t = static_cast<std::size_t>(tile);
      // The cache holds the fine-resolution rendition — decoded samples for
      // level-0 bricks, the trilinear prolongation for coarse ones — which
      // is what every assembly consumes.
      return std::make_shared<const FieldF>(adaptive::reconstruct_brick(
          aidx, t, adaptive::decode_brick(aidx, *codec, stream, t)));
    }
    // Pyramid and progressive streams nest one tiled stream per level; for
    // progressive datasets the cached brick holds *residual* samples (data
    // samples for the coarsest level) — the reconstruction chain sits above
    // the cache, in progressive_layers.
    const tiled::Index& ti = lidx[static_cast<std::size_t>(level)];
    const std::span<const std::byte> level_bytes =
        kind == Dataset::Kind::tiled ? std::span<const std::byte>(stream)
        : kind == Dataset::Kind::progressive
            ? gidx.level_stream(stream, static_cast<std::size_t>(level))
            : pidx.level_stream(stream, static_cast<std::size_t>(level));
    const bool coarsest_data = kind == Dataset::Kind::progressive &&
                               data_codec != nullptr &&
                               static_cast<std::size_t>(level) + 1 == lidx.size();
    const Compressor& c = coarsest_data ? *data_codec : *codec;
    return std::make_shared<const FieldF>(
        tiled::decode_tile(ti, c, level_bytes, static_cast<std::size_t>(tile)));
  }

  /// Assembles the raw stored samples of one level over `box` through the
  /// cache — core ∩ box from every intersecting brick, the same ownership
  /// rule as tiled::read_region. For pyramid/tiled levels that is the data;
  /// for progressive levels below the top it is the residual window.
  FieldF assemble_level(int level, const tiled::Box& box,
                        std::vector<index_t>* hit_out = nullptr) {
    const tiled::Index& ti = lidx[static_cast<std::size_t>(level)];
    std::vector<index_t> hit = tiled::tiles_in_region(ti, box);
    // Each lane copies its brick's core as soon as it holds the brick: the
    // cores tile the box, so every sample is written exactly once and the
    // output needs no zero-fill. The brick pointer is held for the copy, so
    // the result stays exact even if the cache evicts the brick at once.
    FieldF out(box.extent(), uninit);
    pool->parallel_for(static_cast<index_t>(hit.size()), [&](index_t i) {
      const index_t t = hit[static_cast<std::size_t>(i)];
      const BrickPtr b =
          cache->fetch(key_of(level, t), [&] { return decode(level, t); });
      tiled::copy_core(ti, static_cast<std::size_t>(t), *b, box, out);
    });
    if (hit_out != nullptr) *hit_out = std::move(hit);
    return out;
  }

  /// The layered progressive read: one cache-assembled window per level of
  /// the support chain, coarsest first. Folding with progressive::refine
  /// reproduces progressive::read_region bit-exactly.
  std::vector<ProgressiveLayer> progressive_layers(int level, const tiled::Box& region) {
    MRC_REQUIRE(kind == Dataset::Kind::progressive,
                "serve: not a progressive dataset");
    const auto boxes = progressive::support_chain(gidx, level, region);
    const int top = static_cast<int>(gidx.levels.size()) - 1;
    std::vector<ProgressiveLayer> layers;
    layers.reserve(static_cast<std::size_t>(top - level + 1));
    std::vector<index_t> request_hit;
    for (int l = top; l >= level; --l) {
      OBS_SPAN("serve.progressive_layer");
      ProgressiveLayer layer;
      layer.level = l;
      layer.level_dims = gidx.levels[static_cast<std::size_t>(l)].dims;
      layer.box = boxes[static_cast<std::size_t>(l)];
      layer.residual = l != top;
      layer.data = assemble_level(l, layer.box, l == level ? &request_hit : nullptr);
      layers.push_back(std::move(layer));
    }
    if (cfg.prefetch && pool->size() > 1) prefetch_ring(level, request_hit);
    return layers;
  }

  /// Queues async decodes for the bricks ringing `hit`'s bounding tile box
  /// at Priority::low (the cache dedups against resident bricks, in-flight
  /// decodes and its own backlog cap).
  void prefetch_ring(int level, const std::vector<index_t>& hit) {
    const Dim3& grid = grid_of(level);
    Coord3 lo{grid.nx, grid.ny, grid.nz};
    Coord3 hi{0, 0, 0};
    for (const index_t t : hit) {
      const Coord3 c = tiled::tile_coord(grid, t);
      lo = {std::min(lo.x, c.x), std::min(lo.y, c.y), std::min(lo.z, c.z)};
      hi = {std::max(hi.x, c.x), std::max(hi.y, c.y), std::max(hi.z, c.z)};
    }
    for (index_t z = std::max<index_t>(0, lo.z - 1);
         z <= std::min(grid.nz - 1, hi.z + 1); ++z)
      for (index_t y = std::max<index_t>(0, lo.y - 1);
           y <= std::min(grid.ny - 1, hi.y + 1); ++y)
        for (index_t x = std::max<index_t>(0, lo.x - 1);
             x <= std::min(grid.nx - 1, hi.x + 1); ++x) {
          if (x >= lo.x && x <= hi.x && y >= lo.y && y <= hi.y && z >= lo.z &&
              z <= hi.z)
            continue;  // inside the footprint: already decoded by the read
          const index_t t = x + grid.nx * (y + grid.ny * z);
          cache->prefetch(key_of(level, t), *pool, [this, level, t]() -> BrickPtr {
            // null = "decline": whoever needs the brick decodes it itself.
            if (shutting_down.load(std::memory_order_relaxed)) return nullptr;
            return decode(level, t);
          });
        }
  }
};

Dataset::Dataset(Bytes stream, const Config& cfg)
    : impl_(std::make_unique<Impl>(std::move(stream), cfg, nullptr, nullptr)) {}
Dataset::Dataset(Bytes stream, const Config& cfg, std::shared_ptr<BrickCache> cache,
                 std::shared_ptr<exec::ThreadPool> pool) {
  MRC_REQUIRE(cache != nullptr && pool != nullptr,
              "serve: shared Dataset needs a cache and a pool");
  impl_ = std::make_unique<Impl>(std::move(stream), cfg, std::move(cache),
                                 std::move(pool));
}
Dataset::~Dataset() = default;
Dataset::Dataset(Dataset&&) noexcept = default;
Dataset& Dataset::operator=(Dataset&&) noexcept = default;

Dataset::Kind Dataset::kind() const { return impl_->kind; }

const tiled::Index& Dataset::tiled_index() const {
  MRC_REQUIRE(impl_->kind == Kind::tiled, "serve: not a tiled dataset");
  return impl_->lidx[0];
}

const pyramid::Index& Dataset::index() const {
  MRC_REQUIRE(impl_->kind == Kind::pyramid, "serve: not a pyramid dataset");
  return impl_->pidx;
}

const adaptive::Index& Dataset::adaptive_index() const {
  MRC_REQUIRE(impl_->kind == Kind::adaptive, "serve: not an adaptive dataset");
  return impl_->aidx;
}

const progressive::Index& Dataset::progressive_index() const {
  MRC_REQUIRE(impl_->kind == Kind::progressive, "serve: not a progressive dataset");
  return impl_->gidx;
}

int Dataset::levels() const {
  switch (impl_->kind) {
    case Kind::pyramid: return static_cast<int>(impl_->pidx.levels.size());
    case Kind::progressive: return static_cast<int>(impl_->gidx.levels.size());
    default: return 1;
  }
}

double Dataset::eb() const {
  switch (impl_->kind) {
    case Kind::adaptive: return impl_->aidx.eb;
    case Kind::tiled: return impl_->lidx[0].eb;
    case Kind::progressive: return impl_->gidx.eb;
    case Kind::pyramid: break;
  }
  return impl_->pidx.eb;
}

Dim3 Dataset::dims(int level) const {
  MRC_REQUIRE(level >= 0 && level < levels(), "serve: level out of range");
  switch (impl_->kind) {
    case Kind::adaptive: return impl_->aidx.dims;
    case Kind::tiled: return impl_->lidx[0].dims;
    case Kind::progressive:
      return impl_->gidx.levels[static_cast<std::size_t>(level)].dims;
    case Kind::pyramid: break;
  }
  return impl_->pidx.levels[static_cast<std::size_t>(level)].dims;
}

double Dataset::level_error(int level) const {
  MRC_REQUIRE(level >= 0 && level < levels(), "serve: level out of range");
  switch (impl_->kind) {
    case Kind::adaptive: return impl_->adaptive_worst_err;
    case Kind::tiled: return impl_->lidx[0].eb;  // no LOD: codec bound only
    case Kind::progressive:
      return impl_->gidx.levels[static_cast<std::size_t>(level)].approx_err;
    case Kind::pyramid: break;
  }
  return impl_->pidx.levels[static_cast<std::size_t>(level)].approx_err;
}

FieldF Dataset::read_region(int level, const tiled::Box& region) {
  MRC_REQUIRE(level >= 0 && level < levels(), "serve: level out of range");
  OBS_SPAN("serve.dataset_read");
  Impl& im = *impl_;
  if (im.kind == Kind::progressive) {
    // Fold the layered read top-down with the shared refine step — the same
    // arithmetic as progressive::read_region, hence bit-identical.
    auto layers = im.progressive_layers(level, region);
    FieldF window = std::move(layers.front().data);
    for (std::size_t i = 1; i < layers.size(); ++i) {
      const ProgressiveLayer& fine = layers[i];
      window = progressive::refine(
          window, layers[i - 1].box,
          im.gidx.levels[static_cast<std::size_t>(layers[i - 1].level)].dims,
          fine.data, fine.box,
          im.gidx.levels[static_cast<std::size_t>(fine.level)].dims);
    }
    return window;
  }
  std::vector<index_t> hit;
  FieldF out;
  if (im.kind == Kind::adaptive) {
    // The hit set includes the low-side contributors a seam-free blend
    // needs, not just the owners. Fetch every brick through the shared
    // cache: resident bricks are hits, in-flight decodes (another reader's,
    // or a queued prefetch this read claims) are coalesced, the rest decode
    // here — one decode per brick however many threads collide. Each brick
    // is held locally so the result stays exact even if the cache
    // immediately evicts it.
    hit = adaptive::bricks_for_region(im.aidx, region);
    std::vector<BrickPtr> bricks(hit.size());
    im.pool->parallel_for(static_cast<index_t>(hit.size()), [&](index_t i) {
      const auto slot = static_cast<std::size_t>(i);
      bricks[slot] = im.cache->fetch(im.key_of(level, hit[slot]),
                                     [&] { return im.decode(level, hit[slot]); });
    });
    // Assemble with the container's blend rule over the cached
    // fine-resolution renditions — bit-identical to adaptive::read_region,
    // and like it writes every sample of the region.
    std::unordered_map<index_t, std::size_t> slot;
    slot.reserve(hit.size());
    for (std::size_t i = 0; i < hit.size(); ++i) slot.emplace(hit[i], i);
    out = FieldF(region.extent(), uninit);
    adaptive::detail::assemble_region(
        im.aidx, region,
        [&](index_t t) -> const FieldF& { return *bricks[slot.at(t)]; }, out);
  } else {
    // Core ∩ region from every brick — the same ownership rule as
    // tiled::read_region, hence bit-identical output (tiled and pyramid
    // levels share the tile-index layout).
    out = im.assemble_level(level, region, &hit);
  }

  // Single-lane pools would run "async" prefetch inline and make every read
  // pay for its neighbors — only warm ahead when there are real workers.
  if (im.cfg.prefetch && im.pool->size() > 1) im.prefetch_ring(level, hit);
  return out;
}

std::vector<ProgressiveLayer> Dataset::read_progressive(int level,
                                                        const tiled::Box& region) {
  MRC_REQUIRE(level >= 0 && level < levels(), "serve: level out of range");
  OBS_SPAN("serve.dataset_read");
  return impl_->progressive_layers(level, region);
}

tiled::Box Dataset::box_at_level(const tiled::Box& fine_box, int level) const {
  MRC_REQUIRE(level >= 0 && level < levels(), "serve: level out of range");
  const Dim3 fd = dims(0);
  const Dim3 ext = fine_box.extent();
  MRC_REQUIRE(fine_box.lo.x >= 0 && fine_box.lo.y >= 0 && fine_box.lo.z >= 0 &&
                  ext.nx > 0 && ext.ny > 0 && ext.nz > 0 && fine_box.hi.x <= fd.nx &&
                  fine_box.hi.y <= fd.ny && fine_box.hi.z <= fd.nz,
              "serve: box must be a non-empty box inside " + fd.str());
  const index_t s = index_t{1} << level;
  const Dim3 ld = dims(level);
  return {{fine_box.lo.x / s, fine_box.lo.y / s, fine_box.lo.z / s},
          {std::min(ceil_div(fine_box.hi.x, s), ld.nx),
           std::min(ceil_div(fine_box.hi.y, s), ld.ny),
           std::min(ceil_div(fine_box.hi.z, s), ld.nz)}};
}

int Dataset::choose_level(const tiled::Box& fine_box, index_t sample_budget) const {
  MRC_REQUIRE(sample_budget >= 1, "serve: sample budget must be >= 1");
  for (int l = 0; l < levels(); ++l)
    if (box_at_level(fine_box, l).extent().size() <= sample_budget) return l;
  return levels() - 1;
}

int Dataset::choose_level(double eb_budget) const {
  MRC_REQUIRE(eb_budget > 0.0, "serve: error budget must be > 0");
  for (int l = levels() - 1; l > 0; --l)
    if (level_error(l) <= eb_budget) return l;
  return 0;
}

CacheStats Dataset::stats() const { return impl_->cache->stats(impl_->ds_id); }

void Dataset::wait_idle() { impl_->cache->wait_idle(impl_->ds_id); }

void Dataset::drop_cache() { impl_->cache->drop(impl_->ds_id); }

}  // namespace mrc::serve
