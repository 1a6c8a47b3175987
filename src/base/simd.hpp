// Portable 4-lane double SIMD wrapper for the v2 scoring kernels.
//
// Design contract (docs/ALGORITHMS.md "Scoring engine v2"):
//
//  * Every backend models the SAME logical register: 4 doubles. On
//    AVX2 that is one __m256d; on NEON it is a pair of float64x2_t;
//    the scalar fallback is a plain double[4]. Kernels are written
//    once against this interface and instantiated per backend.
//  * Lane semantics are identical across backends — lane i of every
//    operation depends only on lane i of the inputs, and hsum() uses
//    one fixed reduction tree, (l0 + l2) + (l1 + l3), everywhere.
//    Together with the build never enabling FP contraction on these
//    TUs (no -mfma; see top-level CMakeLists.txt) this makes the
//    native backends bit-identical to ScalarVec4d, which the
//    core_scoring_v2 tests pin.
//  * ScalarVec4d is ALWAYS compiled, even when a native backend is
//    selected, so the differential tests can compare both in one
//    binary and -DLOCTK_SIMD=OFF builds exercise exactly the code
//    CI's simd-off matrix leg ships.
//
// Alignment: CompiledDatabase pads each SoA row to a multiple of
// kLanes * 2 doubles (= 64 bytes, one cache line) and aligns the
// allocation to 64 bytes, so kernels may use aligned full-width loads
// with no scalar tail and no masking. Pad cells carry mask = 0 and
// finite sentinel values, which makes every padded term an exact
// +/-0.0 contribution.

#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#if defined(LOCTK_SIMD_AVX2)
#include <immintrin.h>
#elif defined(LOCTK_SIMD_NEON)
#include <arm_neon.h>
#endif

namespace loctk::simd {

/// Logical lanes per vector, identical for every backend.
inline constexpr std::size_t kLanes = 4;

/// Allocation alignment and row-stride granularity for SoA matrices:
/// one cache line, i.e. two logical vectors of doubles.
inline constexpr std::size_t kAlignment = 64;
inline constexpr std::size_t kStrideDoubles = kAlignment / sizeof(double);

/// Rounds a logical row width up to the padded stride (multiple of 8
/// doubles) used by CompiledDatabase matrices.
constexpr std::size_t padded_stride(std::size_t n) {
  return (n + kStrideDoubles - 1) & ~(kStrideDoubles - 1);
}

// ---------------------------------------------------------------------------
// Scalar fallback: always compiled, pinned bit-compatible with the
// native backends by tests/core_scoring_v2_test.cpp.
// ---------------------------------------------------------------------------

struct ScalarVec4d {
  double lane[kLanes];

  static ScalarVec4d load(const double* p) {
    return {{p[0], p[1], p[2], p[3]}};
  }
  static ScalarVec4d broadcast(double v) { return {{v, v, v, v}}; }
  static ScalarVec4d zero() { return {{0.0, 0.0, 0.0, 0.0}}; }

  void store(double* p) const {
    p[0] = lane[0];
    p[1] = lane[1];
    p[2] = lane[2];
    p[3] = lane[3];
  }

  ScalarVec4d operator+(const ScalarVec4d& o) const {
    return {{lane[0] + o.lane[0], lane[1] + o.lane[1], lane[2] + o.lane[2],
             lane[3] + o.lane[3]}};
  }
  ScalarVec4d operator-(const ScalarVec4d& o) const {
    return {{lane[0] - o.lane[0], lane[1] - o.lane[1], lane[2] - o.lane[2],
             lane[3] - o.lane[3]}};
  }
  ScalarVec4d operator*(const ScalarVec4d& o) const {
    return {{lane[0] * o.lane[0], lane[1] * o.lane[1], lane[2] * o.lane[2],
             lane[3] * o.lane[3]}};
  }

  /// Lane-wise a > b ? x : y. NaN compares false (→ y), matching the
  /// ordered-quiet comparisons the native backends use.
  static ScalarVec4d select_gt(const ScalarVec4d& a, const ScalarVec4d& b,
                               const ScalarVec4d& x, const ScalarVec4d& y) {
    return {{a.lane[0] > b.lane[0] ? x.lane[0] : y.lane[0],
             a.lane[1] > b.lane[1] ? x.lane[1] : y.lane[1],
             a.lane[2] > b.lane[2] ? x.lane[2] : y.lane[2],
             a.lane[3] > b.lane[3] ? x.lane[3] : y.lane[3]}};
  }
  /// Lane-wise a >= b ? x : y (NaN → y).
  static ScalarVec4d select_ge(const ScalarVec4d& a, const ScalarVec4d& b,
                               const ScalarVec4d& x, const ScalarVec4d& y) {
    return {{a.lane[0] >= b.lane[0] ? x.lane[0] : y.lane[0],
             a.lane[1] >= b.lane[1] ? x.lane[1] : y.lane[1],
             a.lane[2] >= b.lane[2] ? x.lane[2] : y.lane[2],
             a.lane[3] >= b.lane[3] ? x.lane[3] : y.lane[3]}};
  }

  /// Fixed reduction tree shared by every backend: (l0+l2) + (l1+l3).
  double hsum() const {
    return (lane[0] + lane[2]) + (lane[1] + lane[3]);
  }
};

#if defined(LOCTK_SIMD_AVX2)

// ---------------------------------------------------------------------------
// AVX2 backend: one __m256d per logical vector. hsum reproduces the
// scalar tree exactly — extract/unpack pairs lanes as {0,2} and {1,3}.
// ---------------------------------------------------------------------------

struct Avx2Vec4d {
  __m256d v;

  static Avx2Vec4d load(const double* p) { return {_mm256_load_pd(p)}; }
  static Avx2Vec4d broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static Avx2Vec4d zero() { return {_mm256_setzero_pd()}; }

  void store(double* p) const { _mm256_store_pd(p, v); }

  Avx2Vec4d operator+(const Avx2Vec4d& o) const {
    return {_mm256_add_pd(v, o.v)};
  }
  Avx2Vec4d operator-(const Avx2Vec4d& o) const {
    return {_mm256_sub_pd(v, o.v)};
  }
  Avx2Vec4d operator*(const Avx2Vec4d& o) const {
    return {_mm256_mul_pd(v, o.v)};
  }

  static Avx2Vec4d select_gt(const Avx2Vec4d& a, const Avx2Vec4d& b,
                             const Avx2Vec4d& x, const Avx2Vec4d& y) {
    return {_mm256_blendv_pd(y.v, x.v,
                             _mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ))};
  }
  static Avx2Vec4d select_ge(const Avx2Vec4d& a, const Avx2Vec4d& b,
                             const Avx2Vec4d& x, const Avx2Vec4d& y) {
    return {_mm256_blendv_pd(y.v, x.v,
                             _mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ))};
  }

  double hsum() const {
    const __m128d lo = _mm256_castpd256_pd128(v);       // {l0, l1}
    const __m128d hi = _mm256_extractf128_pd(v, 1);     // {l2, l3}
    const __m128d sum = _mm_add_pd(lo, hi);             // {l0+l2, l1+l3}
    const __m128d swap = _mm_unpackhi_pd(sum, sum);     // {l1+l3, l1+l3}
    return _mm_cvtsd_f64(_mm_add_sd(sum, swap));        // (l0+l2)+(l1+l3)
  }
};

using Vec4d = Avx2Vec4d;
inline constexpr const char* kBackendName = "avx2";

#elif defined(LOCTK_SIMD_NEON)

// ---------------------------------------------------------------------------
// NEON backend: a pair of float64x2_t. Lane order matches the scalar
// layout ({l0,l1} in lo, {l2,l3} in hi) so hsum's tree is identical.
// ---------------------------------------------------------------------------

struct NeonVec4d {
  float64x2_t lo;  // lanes 0, 1
  float64x2_t hi;  // lanes 2, 3

  static NeonVec4d load(const double* p) {
    return {vld1q_f64(p), vld1q_f64(p + 2)};
  }
  static NeonVec4d broadcast(double x) {
    return {vdupq_n_f64(x), vdupq_n_f64(x)};
  }
  static NeonVec4d zero() { return broadcast(0.0); }

  void store(double* p) const {
    vst1q_f64(p, lo);
    vst1q_f64(p + 2, hi);
  }

  NeonVec4d operator+(const NeonVec4d& o) const {
    return {vaddq_f64(lo, o.lo), vaddq_f64(hi, o.hi)};
  }
  NeonVec4d operator-(const NeonVec4d& o) const {
    return {vsubq_f64(lo, o.lo), vsubq_f64(hi, o.hi)};
  }
  NeonVec4d operator*(const NeonVec4d& o) const {
    return {vmulq_f64(lo, o.lo), vmulq_f64(hi, o.hi)};
  }

  static NeonVec4d select_gt(const NeonVec4d& a, const NeonVec4d& b,
                             const NeonVec4d& x, const NeonVec4d& y) {
    return {vbslq_f64(vcgtq_f64(a.lo, b.lo), x.lo, y.lo),
            vbslq_f64(vcgtq_f64(a.hi, b.hi), x.hi, y.hi)};
  }
  static NeonVec4d select_ge(const NeonVec4d& a, const NeonVec4d& b,
                             const NeonVec4d& x, const NeonVec4d& y) {
    return {vbslq_f64(vcgeq_f64(a.lo, b.lo), x.lo, y.lo),
            vbslq_f64(vcgeq_f64(a.hi, b.hi), x.hi, y.hi)};
  }

  double hsum() const {
    const float64x2_t sum = vaddq_f64(lo, hi);  // {l0+l2, l1+l3}
    return vgetq_lane_f64(sum, 0) + vgetq_lane_f64(sum, 1);
  }
};

using Vec4d = NeonVec4d;
inline constexpr const char* kBackendName = "neon";

#else

using Vec4d = ScalarVec4d;
inline constexpr const char* kBackendName = "scalar";

#endif

/// Name of the backend the library's kernels were compiled against.
inline const char* backend() { return kBackendName; }

// ---------------------------------------------------------------------------
// 64-byte aligned storage for the SoA matrices and compiled queries.
// ---------------------------------------------------------------------------

template <class T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlignment});
  }

  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// A 64-byte aligned double buffer; the element type of every
/// CompiledDatabase matrix and CompiledObservation vector.
using AlignedDoubles = std::vector<double, AlignedAllocator<double>>;

/// A fixed-size, 64-byte aligned buffer of doubles that starts out
/// all zeros: the element type of the dense `points x row_stride`
/// matrices (CompiledDatabase's four, GaussianTables' two). A buffer
/// of at least kMapThresholdBytes is its own anonymous `mmap`, so the
/// kernel hands it over zero-filled and untouched; its pages are
/// faulted in by whichever threads fill its rows first, and freeing it
/// returns them at once instead of leaving a hole in the malloc heap.
/// Smaller buffers (house and office maps, most test maps) are
/// zero-filled heap blocks that ASan sees.
class ZeroedDoubles {
 public:
  static constexpr std::size_t kMapThresholdBytes = std::size_t{1} << 20;

  ZeroedDoubles() = default;
  /// `n` zeros.
  explicit ZeroedDoubles(std::size_t n);
  ~ZeroedDoubles();

  ZeroedDoubles(ZeroedDoubles&& other) noexcept
      : data_(other.data_), size_(other.size_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }
  ZeroedDoubles& operator=(ZeroedDoubles&& other) noexcept {
    if (this != &other) {
      ZeroedDoubles gone(std::move(*this));
      data_ = other.data_;
      size_ = other.size_;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  ZeroedDoubles(const ZeroedDoubles&) = delete;
  ZeroedDoubles& operator=(const ZeroedDoubles&) = delete;

  double* data() { return data_; }
  const double* data() const { return data_; }
  double& operator[](std::size_t i) { return data_[i]; }
  const double& operator[](std::size_t i) const { return data_[i]; }

 private:
  bool mapped() const { return size_ * sizeof(double) >= kMapThresholdBytes; }

  double* data_ = nullptr;
  std::size_t size_ = 0;
};

/// True when `p` satisfies the kernel alignment contract.
inline bool is_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kAlignment == 0;
}

}  // namespace loctk::simd
