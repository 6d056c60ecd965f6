#pragma once

// Owning 3-D scalar field. Header-only: this type is on every hot path.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/dims.h"
#include "common/require.h"
#include "compressors/simd_kernels.h"

namespace mrc {

/// std::allocator that default-initialises instead of value-initialising:
/// resize(n) on a vector of floats allocates without writing a byte, so the
/// first write — and its page fault — happens wherever the data is produced.
/// Every other construction (fill, copy) behaves exactly like std::allocator.
template <typename T>
class DefaultInitAllocator {
 public:
  using value_type = T;

  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t n) { return std::allocator<T>{}.allocate(n); }
  void deallocate(T* p, std::size_t n) noexcept { std::allocator<T>{}.deallocate(p, n); }

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const DefaultInitAllocator&, const DefaultInitAllocator&) {
    return true;
  }
};

/// Tag selecting Field3D's uninitialised constructor.
struct Uninit {
  explicit Uninit() = default;
};
inline constexpr Uninit uninit{};

/// Row-major (x fastest) owning 3-D array of scalars.
template <typename T>
class Field3D {
 public:
  Field3D() = default;

  /// Sample storage: a std::vector whose resize() leaves new samples
  /// uninitialised (see DefaultInitAllocator).
  using Storage = std::vector<T, DefaultInitAllocator<T>>;

  explicit Field3D(Dim3 dims, T init = T{})
      : dims_(dims), data_(static_cast<std::size_t>(dims.size()), init) {
    MRC_REQUIRE(dims.nx >= 0 && dims.ny >= 0 && dims.nz >= 0, "negative extent");
  }

  /// Allocates without initialising any sample. Only for producers that
  /// provably write every sample before anything reads one (a decoder
  /// sweep, or brick cores that partition the output): the pages are then
  /// first touched by those writes — on the pool lanes that make them —
  /// instead of by a serial zero-fill. ASan builds fill the storage with
  /// an all-ones byte pattern (NaN for float/double) so a sample left
  /// unwritten shows up in any comparison against a reference decode.
  Field3D(Dim3 dims, Uninit) : dims_(dims) {
    MRC_REQUIRE(dims.nx >= 0 && dims.ny >= 0 && dims.nz >= 0, "negative extent");
    data_.resize(static_cast<std::size_t>(dims.size()));
#if defined(__SANITIZE_ADDRESS__)
    if (!data_.empty()) std::memset(data_.data(), 0xff, data_.size() * sizeof(T));
#endif
  }

  Field3D(Dim3 dims, Storage data) : dims_(dims), data_(std::move(data)) {
    MRC_REQUIRE(static_cast<index_t>(data_.size()) == dims_.size(),
                "data size does not match extents");
  }

  [[nodiscard]] const Dim3& dims() const { return dims_; }
  [[nodiscard]] index_t size() const { return dims_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] T& at(index_t x, index_t y, index_t z) {
    return data_[static_cast<std::size_t>(dims_.index(x, y, z))];
  }
  [[nodiscard]] const T& at(index_t x, index_t y, index_t z) const {
    return data_[static_cast<std::size_t>(dims_.index(x, y, z))];
  }

  /// Bounds-checked access; use in tests and non-hot paths.
  [[nodiscard]] T& at_checked(index_t x, index_t y, index_t z) {
    MRC_REQUIRE(dims_.contains(x, y, z), "index out of range");
    return at(x, y, z);
  }

  [[nodiscard]] T& operator[](index_t i) { return data_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const T& operator[](index_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  [[nodiscard]] std::span<T> span() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const T> span() const { return {data_.data(), data_.size()}; }
  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }

  /// Exactly what std::minmax_element returns: the first smallest and the
  /// last largest sample. Float fields take the SIMD kernel, which keeps
  /// that contract bit for bit (simd::min_max_f32).
  [[nodiscard]] std::pair<T, T> min_max() const {
    MRC_REQUIRE(!data_.empty(), "min_max of empty field");
    if constexpr (std::is_same_v<T, float>) {
      return simd::min_max_f32(data_.data(), data_.size());
    } else {
      auto [lo, hi] = std::minmax_element(data_.begin(), data_.end());
      return {*lo, *hi};
    }
  }

  [[nodiscard]] double value_range() const {
    auto [lo, hi] = min_max();
    return static_cast<double>(hi) - static_cast<double>(lo);
  }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  /// Moves the storage out (the field becomes empty). Lets hot paths lend a
  /// reusable buffer to a Field3D and take it back without reallocating.
  [[nodiscard]] Storage release() {
    dims_ = {};
    return std::move(data_);
  }

  bool operator==(const Field3D&) const = default;

 private:
  Dim3 dims_{};
  Storage data_{};
};

using FieldF = Field3D<float>;
using FieldD = Field3D<double>;
using MaskField = Field3D<std::uint8_t>;

}  // namespace mrc
