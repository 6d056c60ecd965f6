#include "postproc/sampler.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "grid/field_ops.h"

namespace mrc::postproc {

SampleBlocks draw_sample_blocks(const FieldF& f, index_t block_edge, int count,
                                std::uint64_t seed) {
  MRC_REQUIRE(block_edge >= 2 && count >= 1, "bad sampling parameters");
  const Dim3 d = f.dims();
  Rng rng(seed);
  SampleBlocks s;
  s.block_edge = block_edge;
  index_t sampled = 0;
  for (int c = 0; c < count; ++c) {
    const Dim3 e{std::min(block_edge, d.nx), std::min(block_edge, d.ny),
                 std::min(block_edge, d.nz)};
    const Coord3 o{
        static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.nx - e.nx + 1))),
        static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.ny - e.ny + 1))),
        static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.nz - e.nz + 1)))};
    s.originals.push_back(extract_region(f, o, e));
    sampled += e.size();
  }
  s.sample_rate = static_cast<double>(sampled) / static_cast<double>(d.size());
  return s;
}

SamplingPlan default_sampling(Dim3 dims, index_t compressor_block, double target_rate) {
  // Paper: i^3 blocks of (j * blocksize)^3 with rate below ~1.5 %.
  const index_t j = 4;
  index_t edge = j * compressor_block;
  edge = std::min({edge, dims.nx, dims.ny, dims.nz});
  edge = std::max<index_t>(edge, 4);
  const double per_block = static_cast<double>(edge) * edge * edge;
  int count = static_cast<int>(std::floor(target_rate * static_cast<double>(dims.size()) /
                                          per_block));
  count = std::clamp(count, 1, 27);
  return {edge, count};
}

std::vector<double> sz_candidates() {
  std::vector<double> c;
  for (int i = 1; i <= 10; ++i) c.push_back(0.05 * i);
  return c;
}

std::vector<double> zfp_candidates() {
  std::vector<double> c;
  for (int i = 1; i <= 10; ++i) c.push_back(0.005 * i);
  return c;
}

namespace {

double mse_between(const FieldF& a, const FieldF& b) {
  double acc = 0.0;
  for (index_t i = 0; i < a.size(); ++i) {
    const double diff = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += diff * diff;
  }
  return acc / static_cast<double>(a.size());
}

}  // namespace

IntensityResult tune_intensity(const SampleBlocks& samples, const Compressor& comp,
                               double abs_eb, index_t block_size,
                               std::span<const double> candidates) {
  MRC_REQUIRE(!samples.originals.empty(), "no sample blocks");
  MRC_REQUIRE(!candidates.empty(), "no candidates");

  // Round-trip every sample once.
  std::vector<FieldF> decs;
  decs.reserve(samples.originals.size());
  double base = 0.0;
  for (const auto& o : samples.originals) {
    auto rt = round_trip(comp, o, abs_eb);
    base += mse_between(o, rt.reconstructed);
    decs.push_back(std::move(rt.reconstructed));
  }
  base /= static_cast<double>(samples.originals.size());

  IntensityResult result;
  result.base_mse = base;

  // Per-dimension scan: a = 0 (off) competes against every candidate, so a
  // conservative zero intensity wins when post-processing cannot help
  // (the paper's low-CR behaviour).
  // The sample blocks are small, so the (candidate, sample) pairs run in
  // parallel and each block's sweep runs serially on its lane; the errors
  // are then added in sample order.
  const auto n_samples = static_cast<index_t>(decs.size());
  std::vector<double> mse(candidates.size() * decs.size());
  double chosen[3] = {0.0, 0.0, 0.0};
  for (int axis = 0; axis < 3; ++axis) {
    exec::parallel_for(static_cast<index_t>(mse.size()), [&](index_t k) {
      const auto i = static_cast<std::size_t>(k % n_samples);
      const double a = candidates[static_cast<std::size_t>(k / n_samples)];
      mse[static_cast<std::size_t>(k)] = mse_between(
          samples.originals[i],
          bezier_postprocess_axis(decs[i], block_size, abs_eb, a, axis));
    });
    double best_a = 0.0;
    double best_err = base;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      double err = 0.0;
      for (std::size_t i = 0; i < decs.size(); ++i) err += mse[c * decs.size() + i];
      err /= static_cast<double>(decs.size());
      if (err < best_err) {
        best_err = err;
        best_a = candidates[c];
      }
    }
    chosen[axis] = best_a;
  }
  result.ax = chosen[0];
  result.ay = chosen[1];
  result.az = chosen[2];

  // Sampled quality with the combined intensities.
  BezierParams p{block_size, abs_eb, result.ax, result.ay, result.az};
  exec::parallel_for(n_samples, [&](index_t k) {
    const auto i = static_cast<std::size_t>(k);
    mse[i] = mse_between(samples.originals[i], bezier_postprocess(decs[i], p));
  });
  double tuned = 0.0;
  for (std::size_t i = 0; i < decs.size(); ++i) tuned += mse[i];
  result.tuned_mse = tuned / static_cast<double>(decs.size());
  return result;
}

ErrorSamples collect_error_samples(const SampleBlocks& samples, const Compressor& comp,
                                   double abs_eb) {
  ErrorSamples es;
  for (const auto& o : samples.originals) {
    const auto rt = round_trip(comp, o, abs_eb);
    for (index_t i = 0; i < o.size(); ++i) {
      es.orig.push_back(o[i]);
      es.dec.push_back(rt.reconstructed[i]);
    }
  }
  return es;
}

}  // namespace mrc::postproc
