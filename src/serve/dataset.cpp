#include "serve/dataset.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace mrc::serve {

struct Dataset::Impl {
  // -- immutable after construction -----------------------------------------
  Bytes stream;
  Config cfg;
  std::unique_ptr<source::BrickSource> src;  ///< views `stream`

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
      : stream(std::move(s)), cfg(c), src(source::open(stream)) {
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

  [[nodiscard]] CacheKey key_of(int level, index_t tile) const {
    return {ds_id, src->cache_tag(level, tile)};
  }

  BrickPtr decode(int level, index_t tile) const {
    return std::make_shared<const FieldF>(src->decode_brick(level, tile));
  }

  /// The cache-backed fetch every region assembly runs on: resident bricks
  /// are hits, in-flight decodes (another reader's, or a queued prefetch
  /// this read claims) are coalesced, the rest decode here — one decode per
  /// brick however many threads collide.
  [[nodiscard]] source::BrickFetch fetch() {
    return [this](int level, index_t t) {
      return cache->fetch(key_of(level, t), [&] { return decode(level, t); });
    };
  }

  /// Queues async decodes for the bricks ringing `hit`'s bounding tile box
  /// at Priority::low (the cache dedups against resident bricks, in-flight
  /// decodes and its own backlog cap). Single-lane pools would run "async"
  /// prefetch inline and make every read pay for its neighbors — only warm
  /// ahead when there are real workers.
  void prefetch_ring(int level, const std::vector<index_t>& hit) {
    if (!cfg.prefetch || pool->size() <= 1) return;
    const Dim3 grid = src->grid(level);
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

int Dataset::levels() const { return impl_->src->levels(); }

double Dataset::eb() const { return impl_->src->eb(); }

Dim3 Dataset::dims(int level) const { return impl_->src->dims(level); }

double Dataset::level_error(int level) const { return impl_->src->level_error(level); }

FieldF Dataset::read_region(int level, const tiled::Box& region) {
  OBS_SPAN("serve.dataset_read");
  Impl& im = *impl_;
  std::vector<index_t> hit;
  FieldF out = im.src->read(level, region, im.fetch(), *im.pool, &hit);
  im.prefetch_ring(level, hit);
  return out;
}

std::vector<ProgressiveLayer> Dataset::read_progressive(int level,
                                                        const tiled::Box& region) {
  OBS_SPAN("serve.dataset_read");
  Impl& im = *impl_;
  std::vector<index_t> hit;
  auto layers = im.src->read_layers(level, region, im.fetch(), *im.pool, &hit);
  im.prefetch_ring(level, hit);
  return layers;
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
