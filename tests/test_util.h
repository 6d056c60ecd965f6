#pragma once

// Shared helpers for the test suite: deterministic field constructors and
// error measurement.

#include <cmath>
#include <type_traits>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "grid/field.h"

namespace mrc::test {

/// Smooth trigonometric field — friendly to every predictor.
inline FieldF smooth_field(Dim3 d, double amp = 100.0) {
  FieldF f(d);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x)
        f.at(x, y, z) = static_cast<float>(
            amp * (std::sin(0.11 * x) * std::cos(0.07 * y) + std::sin(0.05 * z)));
  return f;
}

/// White-noise field — worst case for prediction, exercises outliers.
inline FieldF noise_field(Dim3 d, double amp = 1.0, std::uint64_t seed = 99) {
  Rng rng(seed);
  FieldF f(d);
  for (index_t i = 0; i < d.size(); ++i)
    f[i] = static_cast<float>(amp * rng.normal());
  return f;
}

/// Piecewise-constant field with a sharp step — exercises outlier paths and
/// artifact-prone regions.
inline FieldF step_field(Dim3 d, double lo = 0.0, double hi = 1000.0) {
  FieldF f(d);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x)
        f.at(x, y, z) = static_cast<float>(x < d.nx / 2 ? lo : hi);
  return f;
}

/// Regression blocks beside Lorenzo blocks for the SZ2-class codec at
/// 6^3: the x < nx/2 half is a jittered plane (regression wins), the rest a
/// separable quadratic the Lorenzo stencil predicts exactly (Lorenzo wins
/// off the chunk faces), with rare +50 spikes for the outlier channel.
inline FieldF mixed_block_field(Dim3 d) {
  FieldF f(d);
  Rng rng(5);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x) {
        const double jitter = 0.02 * rng.uniform();
        const auto xd = static_cast<double>(x), yd = static_cast<double>(y),
                   zd = static_cast<double>(z);
        double v = x < (d.nx + 1) / 2 ? 2.0 * xd - 1.5 * yd + 0.75 * zd + jitter
                                      : 0.5 * xd * xd + 0.3 * yd * yd - 0.4 * zd * zd;
        if (rng.uniform() < 0.01) v += 50.0;
        f.at(x, y, z) = static_cast<float>(v);
      }
  return f;
}

inline double max_abs_err(const FieldF& a, const FieldF& b) {
  double m = 0.0;
  for (index_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  return m;
}

/// Returns fn() as computed inside a single-lane pool's parallel_for, where
/// exec::on_pool_lane() holds, so every exec::parallel_for that fn reaches
/// takes its serial path.
template <typename F>
std::invoke_result_t<F> on_pool_lane(F fn) {
  std::invoke_result_t<F> out{};
  exec::ThreadPool(1).parallel_for(1, [&](index_t) { out = fn(); });
  return out;
}

}  // namespace mrc::test
