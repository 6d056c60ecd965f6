#include "compressors/simd_kernels.h"

#include <algorithm>
#include <atomic>
#include <iterator>

#include "compressors/simd_kernels_scalar.h"

namespace mrc::simd {

namespace {

using namespace detail;

void sc_quantize_linear(const float* orig, const float* lo, const float* hi,
                        std::size_t n, double eb, std::uint32_t radius,
                        std::uint32_t* codes, float* recon, AlignedVec<float>& outliers) {
  s_quantize_linear(orig, lo, hi, n, eb, radius, codes, recon, outliers);
}
void sc_quantize_cubic(const float* orig, const float* a, const float* b,
                       const float* c, const float* d, std::size_t n, double eb,
                       std::uint32_t radius, std::uint32_t* codes, float* recon,
                       AlignedVec<float>& outliers) {
  s_quantize_cubic(orig, a, b, c, d, n, eb, radius, codes, recon, outliers);
}
void sc_quantize_constant(const float* orig, const float* src, std::size_t n,
                          double eb, std::uint32_t radius, std::uint32_t* codes,
                          float* recon, AlignedVec<float>& outliers) {
  s_quantize_constant(orig, src, n, eb, radius, codes, recon, outliers);
}
void sc_quantize_block_plane(const PlaneBlock& b, const float* orig, double eb,
                             std::uint32_t radius, std::uint32_t* codes, float* recon,
                             AlignedVec<float>& outliers, BlockScratch&) {
  s_quantize_block_plane(b, orig, eb, radius, codes, recon, outliers);
}
void sc_dequantize_linear(const std::uint32_t* codes, const float* lo, const float* hi,
                          std::size_t n, double eb, std::uint32_t radius, float* recon,
                          std::span<const float> outliers, std::size_t& pos) {
  s_dequantize_linear(codes, lo, hi, n, eb, radius, recon, outliers, pos);
}
void sc_dequantize_cubic(const std::uint32_t* codes, const float* a, const float* b,
                         const float* c, const float* d, std::size_t n, double eb,
                         std::uint32_t radius, float* recon,
                         std::span<const float> outliers, std::size_t& pos) {
  s_dequantize_cubic(codes, a, b, c, d, n, eb, radius, recon, outliers, pos);
}
void sc_dequantize_constant(const std::uint32_t* codes, const float* src, std::size_t n,
                            double eb, std::uint32_t radius, float* recon,
                            std::span<const float> outliers, std::size_t& pos) {
  s_dequantize_constant(codes, src, n, eb, radius, recon, outliers, pos);
}
void sc_dequantize_block_plane(const PlaneBlock& b, const std::uint32_t* codes,
                               double eb, std::uint32_t radius, float* recon,
                               std::span<const float> outliers, std::size_t& pos,
                               BlockScratch&) {
  s_dequantize_block_plane(b, codes, eb, radius, recon, outliers, pos);
}
void sc_select_blocks(const float* orig, std::int64_t nx, std::int64_t ny,
                      std::int64_t zmin, const BlockOrigin* blocks, std::size_t n,
                      std::int64_t ex, std::int64_t ey, std::int64_t ez, BlockFit* fits,
                      BlockScratch&) {
  s_select_blocks(orig, nx, ny, zmin, blocks, n, ex, ey, ez, fits);
}

bool sc_min_max_f32(const float* p, std::size_t n, float& lo, float& hi) {
  lo = hi = p[0];
  return s_min_max_f32(p, n, lo, hi);
}

constexpr KernelTable kScalarTable = {
    sc_quantize_linear,     sc_quantize_cubic,         sc_quantize_constant,
    sc_quantize_block_plane, sc_dequantize_linear,     sc_dequantize_cubic,
    sc_dequantize_constant, sc_dequantize_block_plane, sc_select_blocks,
    sc_min_max_f32,
};

const KernelTable* table_for(Isa isa) {
  switch (isa) {
    case Isa::avx2:
      if (const KernelTable* t = avx2_table()) return t;
      [[fallthrough]];
    case Isa::sse2:
      if (const KernelTable* t = sse2_table()) return t;
      [[fallthrough]];
    case Isa::scalar:
      break;
  }
  return &kScalarTable;
}

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Isa detect_best() {
  if (avx2_table() != nullptr && cpu_has_avx2()) return Isa::avx2;
  if (sse2_table() != nullptr) return Isa::sse2;
  return Isa::scalar;
}

struct Dispatch {
  std::atomic<const KernelTable*> table;
  std::atomic<Isa> isa;
  Dispatch() : table(table_for(detect_best())), isa(detect_best()) {}
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

const KernelTable* active() { return dispatch().table.load(std::memory_order_relaxed); }

}  // namespace

Isa best_isa() {
  static const Isa best = detect_best();
  return best;
}

Isa active_isa() { return dispatch().isa.load(std::memory_order_relaxed); }

Isa force_isa(Isa isa) {
  Isa applied = isa <= best_isa() ? isa : best_isa();
  if (applied == Isa::avx2 && avx2_table() == nullptr) applied = Isa::sse2;
  if (applied == Isa::sse2 && sse2_table() == nullptr) applied = Isa::scalar;
  dispatch().table.store(table_for(applied), std::memory_order_relaxed);
  dispatch().isa.store(applied, std::memory_order_relaxed);
  return applied;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::scalar: return "scalar";
    case Isa::sse2: return "sse2";
    case Isa::avx2: return "avx2";
  }
  return "?";
}

void quantize_row_linear(const float* orig, const float* lo, const float* hi,
                         std::size_t n, double eb, std::uint32_t radius,
                         std::uint32_t* codes, float* recon, AlignedVec<float>& outliers) {
  active()->quantize_linear(orig, lo, hi, n, eb, radius, codes, recon, outliers);
}
void quantize_row_cubic(const float* orig, const float* a, const float* b,
                        const float* c, const float* d, std::size_t n, double eb,
                        std::uint32_t radius, std::uint32_t* codes, float* recon,
                        AlignedVec<float>& outliers) {
  active()->quantize_cubic(orig, a, b, c, d, n, eb, radius, codes, recon, outliers);
}
void quantize_row_constant(const float* orig, const float* src, std::size_t n, double eb,
                           std::uint32_t radius, std::uint32_t* codes, float* recon,
                           AlignedVec<float>& outliers) {
  active()->quantize_constant(orig, src, n, eb, radius, codes, recon, outliers);
}
void dequantize_row_linear(const std::uint32_t* codes, const float* lo, const float* hi,
                           std::size_t n, double eb, std::uint32_t radius, float* recon,
                           std::span<const float> outliers, std::size_t& outlier_pos) {
  active()->dequantize_linear(codes, lo, hi, n, eb, radius, recon, outliers, outlier_pos);
}
void dequantize_row_cubic(const std::uint32_t* codes, const float* a, const float* b,
                          const float* c, const float* d, std::size_t n, double eb,
                          std::uint32_t radius, float* recon,
                          std::span<const float> outliers, std::size_t& outlier_pos) {
  active()->dequantize_cubic(codes, a, b, c, d, n, eb, radius, recon, outliers,
                             outlier_pos);
}
void dequantize_row_constant(const std::uint32_t* codes, const float* src, std::size_t n,
                             double eb, std::uint32_t radius, float* recon,
                             std::span<const float> outliers, std::size_t& outlier_pos) {
  active()->dequantize_constant(codes, src, n, eb, radius, recon, outliers, outlier_pos);
}
void select_blocks(const float* orig, std::int64_t nx, std::int64_t ny,
                   std::int64_t zmin, const BlockOrigin* blocks, std::size_t n,
                   std::int64_t ex, std::int64_t ey, std::int64_t ez, BlockFit* fits,
                   BlockScratch& scratch) {
  active()->select_blocks(orig, nx, ny, zmin, blocks, n, ex, ey, ez, fits, scratch);
}

void quantize_block_plane(const PlaneBlock& b, const float* orig, double eb,
                          std::uint32_t radius, std::uint32_t* codes, float* recon,
                          AlignedVec<float>& outliers, BlockScratch& scratch) {
  active()->quantize_block_plane(b, orig, eb, radius, codes, recon, outliers, scratch);
}

void dequantize_block_plane(const PlaneBlock& b, const std::uint32_t* codes, double eb,
                            std::uint32_t radius, float* recon,
                            std::span<const float> outliers, std::size_t& outlier_pos,
                            BlockScratch& scratch) {
  active()->dequantize_block_plane(b, codes, eb, radius, recon, outliers, outlier_pos,
                                   scratch);
}

std::pair<float, float> min_max_f32(const float* p, std::size_t n) {
  MRC_REQUIRE(n >= 1, "min_max of empty range");
  float lo = 0.0f, hi = 0.0f;
  if (!active()->min_max_f32(p, n, lo, hi)) {  // saw a NaN: only the reference order is exact
    const auto [a, b] = std::minmax_element(p, p + n);
    return {*a, *b};
  }
  // +0 and -0 compare equal, so the vector pass cannot say which zero
  // std::minmax_element returns: the first zero for the min, the last for the max.
  if (lo == 0.0f) lo = *std::find(p, p + n, 0.0f);
  if (hi == 0.0f)
    hi = *std::find(std::make_reverse_iterator(p + n), std::make_reverse_iterator(p), 0.0f);
  return {lo, hi};
}

}  // namespace mrc::simd
