#pragma once

// Runtime-dispatched SIMD kernels for the predictor+quantizer hot loops,
// plus the exact float min/max every relative error bound and every stored
// brick range starts from.
//
// The interp codec spends its time in rows of three shapes: a row-uniform
// prediction (linear / cubic / constant extrapolation along one axis)
// followed by the LinearQuantizer encode or decode of every element. The
// lorenzo codec spends it in 6^3 blocks: per-block predictor selection
// (a plane fit and two absolute-error sums) and regression blocks quantized
// against their plane. These kernels run that work 4 lanes at a time —
// predictions and the quantizer's double-precision checks in vector
// registers, outliers collected from a lane mask and patched after the
// store, four blocks' selection sums in four lanes — and are required to be
// BIT-IDENTICAL to the scalar code they replace: same operation order, same
// single roundings, llround's round-half-away-from-zero emulated exactly
// (trunc(x + copysign(1/2 - 2^-54, x))), no sum reassociated. The
// frozen-format goldens pin this; tests/test_simd_kernels.cpp compares
// every ISA against scalar lane by lane.
//
// Three implementations are registered: scalar (portable reference, always
// available), SSE2 (the x86-64 baseline, two 128-bit double vectors per
// row step), and AVX2 (one 256-bit vector, compiled in its own TU with
// -mavx2 and selected only when the CPU reports AVX2). FMA is deliberately
// never enabled: a fused multiply-add changes roundings and would break
// bit-identity with the scalar path. Dispatch is a table-pointer load;
// force_isa() lets tests and benches pin a path (clamped to what the build
// and CPU support).

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "common/aligned.h"

namespace mrc::simd {

enum class Isa : std::uint8_t { scalar = 0, sse2 = 1, avx2 = 2 };

/// Best ISA this build + CPU supports.
[[nodiscard]] Isa best_isa();

/// Currently dispatched ISA (best_isa() unless force_isa() lowered it).
[[nodiscard]] Isa active_isa();

/// Pins dispatch to `isa` (clamped to best_isa()); returns what was applied.
/// For tests and benches — e.g. forcing scalar to produce the baseline side
/// of a bit-identity comparison.
Isa force_isa(Isa isa);

const char* isa_name(Isa isa);

// Encode kernels: quantize row `orig[0..n)` against the row-uniform
// prediction, writing codes[0..n) and recon[0..n); outlier values append to
// `outliers` in ascending lane order (exactly the scalar push order).
//   linear   pred_i = 0.5 * (float)(lo[i] + hi[i])
//   cubic    pred_i = (-a[i] + 9*b[i] + 9*c[i] - d[i]) / 16   (doubles)
//   constant pred_i = (double)src[i]
void quantize_row_linear(const float* orig, const float* lo, const float* hi,
                         std::size_t n, double eb, std::uint32_t radius,
                         std::uint32_t* codes, float* recon,
                         AlignedVec<float>& outliers);
void quantize_row_cubic(const float* orig, const float* a, const float* b,
                        const float* c, const float* d, std::size_t n, double eb,
                        std::uint32_t radius, std::uint32_t* codes, float* recon,
                        AlignedVec<float>& outliers);
void quantize_row_constant(const float* orig, const float* src, std::size_t n,
                           double eb, std::uint32_t radius, std::uint32_t* codes,
                           float* recon, AlignedVec<float>& outliers);

// Decode kernels: reconstruct recon[0..n) from codes[0..n) and the same
// row-uniform prediction; code 0 consumes outliers[outlier_pos++] (throws
// CodecError "outlier underrun" when exhausted).
void dequantize_row_linear(const std::uint32_t* codes, const float* lo,
                           const float* hi, std::size_t n, double eb,
                           std::uint32_t radius, float* recon,
                           std::span<const float> outliers, std::size_t& outlier_pos);
void dequantize_row_cubic(const std::uint32_t* codes, const float* a,
                          const float* b, const float* c, const float* d,
                          std::size_t n, double eb, std::uint32_t radius,
                          float* recon, std::span<const float> outliers,
                          std::size_t& outlier_pos);
void dequantize_row_constant(const std::uint32_t* codes, const float* src,
                             std::size_t n, double eb, std::uint32_t radius,
                             float* recon, std::span<const float> outliers,
                             std::size_t& outlier_pos);

// ---------------------------------------------------------------------------
// Block kernels of the SZ2-class Lorenzo/regression codec. A field is a
// dense x-fastest float array; a block is an ex*ey*ez box of it, visited in
// k (z), j (y), i (x) order, and every per-block sum adds in that order.
// ---------------------------------------------------------------------------

/// Regression plane v ~ m + gx*(i-ci) + gy*(j-cj) + gz*(k-ck) in block-local
/// coordinates, c* = (e*-1)/2 the block centre.
struct Plane {
  double m = 0, gx = 0, gy = 0, gz = 0;
};

/// Predictor selection of one block: its least-squares plane and the two
/// absolute-error sums the choice compares, the second with the 3-D Lorenzo
/// stencil evaluated on the original samples.
struct BlockFit {
  Plane plane;
  double err_reg = 0;  ///< sum of |v - plane|
  double err_lor = 0;  ///< sum of |v - Lorenzo(original)|
  /// Regression only when strictly better; a tie keeps Lorenzo.
  [[nodiscard]] bool use_reg() const { return err_reg < err_lor; }
};

/// Block origin in field coordinates.
struct BlockOrigin {
  std::int64_t x = 0, y = 0, z = 0;
};

/// Buffers the block kernels reuse from call to call.
struct BlockScratch {
  AlignedVec<float> floats;
  AlignedVec<double> doubles;
};

/// Selects the predictor of n blocks of one shape ex*ey*ez (each with at
/// least 8 samples) in the nx*ny*(any) field `orig`; Lorenzo stencil
/// neighbours at x < 0, y < 0 or z < zmin count as zero. fits[b] belongs to
/// blocks[b]. The vector kernels run four blocks side by side, one per lane,
/// each lane adding in the scalar order.
void select_blocks(const float* orig, std::int64_t nx, std::int64_t ny,
                   std::int64_t zmin, const BlockOrigin* blocks, std::size_t n,
                   std::int64_t ex, std::int64_t ey, std::int64_t ez, BlockFit* fits,
                   BlockScratch& scratch);

/// One regression block of a field: strides, extents and quantized plane.
struct PlaneBlock {
  std::int64_t sy = 0, sz = 0;  ///< field row and plane strides
  std::int64_t ex = 0, ey = 0, ez = 0;
  Plane plane;
};

/// Quantizes one regression block against its plane,
/// pred = ((m + gx*(i-ci)) + aj) + ak with aj = gy*(j-cj), ak = gz*(k-ck):
/// writes codes[0..ex*ey*ez) and the reconstruction into `recon` (same
/// strides as `orig`), and appends outliers, all in k, j, i order. The
/// vector kernels gather the block into one contiguous run, predict and
/// quantize it in one pass and scatter the reconstruction back.
void quantize_block_plane(const PlaneBlock& b, const float* orig, double eb,
                          std::uint32_t radius, std::uint32_t* codes, float* recon,
                          AlignedVec<float>& outliers, BlockScratch& scratch);

/// Inverse of quantize_block_plane: reconstructs the block from
/// codes[0..ex*ey*ez), consuming outliers[outlier_pos..] in order (throws
/// CodecError "outlier underrun" when they run out).
void dequantize_block_plane(const PlaneBlock& b, const std::uint32_t* codes, double eb,
                            std::uint32_t radius, float* recon,
                            std::span<const float> outliers, std::size_t& outlier_pos,
                            BlockScratch& scratch);

/// Minimum and maximum of p[0..n), n >= 1, equal to what
/// std::minmax_element(p, p + n) returns: the first smallest and the last
/// largest element. The kernels fold vectors with min/max instructions,
/// which give the same value but not the same element on ties; the only
/// floats that tie without being bit-equal are +0 and -0, so a min of ±0
/// becomes the first zero in p and a max of ±0 the last one (early-exit
/// scans from either end). A NaN anywhere makes the
/// reference's answer depend on its pairwise scan order, so a vector pass
/// that sees one rescans the same way.
[[nodiscard]] std::pair<float, float> min_max_f32(const float* p, std::size_t n);

namespace detail {

/// Per-ISA entry points. A null table means the ISA is not compiled in.
struct KernelTable {
  void (*quantize_linear)(const float*, const float*, const float*, std::size_t,
                          double, std::uint32_t, std::uint32_t*, float*,
                          AlignedVec<float>&);
  void (*quantize_cubic)(const float*, const float*, const float*, const float*,
                         const float*, std::size_t, double, std::uint32_t,
                         std::uint32_t*, float*, AlignedVec<float>&);
  void (*quantize_constant)(const float*, const float*, std::size_t, double,
                            std::uint32_t, std::uint32_t*, float*,
                            AlignedVec<float>&);
  void (*quantize_block_plane)(const PlaneBlock&, const float*, double, std::uint32_t,
                               std::uint32_t*, float*, AlignedVec<float>&,
                               BlockScratch&);
  void (*dequantize_linear)(const std::uint32_t*, const float*, const float*,
                            std::size_t, double, std::uint32_t, float*,
                            std::span<const float>, std::size_t&);
  void (*dequantize_cubic)(const std::uint32_t*, const float*, const float*,
                           const float*, const float*, std::size_t, double,
                           std::uint32_t, float*, std::span<const float>,
                           std::size_t&);
  void (*dequantize_constant)(const std::uint32_t*, const float*, std::size_t,
                              double, std::uint32_t, float*,
                              std::span<const float>, std::size_t&);
  void (*dequantize_block_plane)(const PlaneBlock&, const std::uint32_t*, double,
                                 std::uint32_t, float*, std::span<const float>,
                                 std::size_t&, BlockScratch&);
  void (*select_blocks)(const float*, std::int64_t, std::int64_t, std::int64_t,
                        const BlockOrigin*, std::size_t, std::int64_t, std::int64_t,
                        std::int64_t, BlockFit*, BlockScratch&);
  /// Unordered min/max of p[0..n) into lo/hi; false when any element is NaN
  /// (lo/hi are then meaningless).
  bool (*min_max_f32)(const float*, std::size_t, float&, float&);
};

/// Defined in simd_kernels_sse2.cpp / simd_kernels_avx2.cpp; nullptr when
/// the build does not support the ISA.
const KernelTable* sse2_table();
const KernelTable* avx2_table();

}  // namespace detail

}  // namespace mrc::simd
