#include "transform/simd_kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/check.h"

// The AVX2+FMA kernels are compiled behind function-level target
// attributes so the rest of this TU (and the whole tree) keeps the
// portable baseline ISA; only the annotated functions may emit VEX
// encodings, and they are only ever called after a cpuid check.
#if !defined(ADA_SIMD_DISABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define ADA_SIMD_X86 1
#include <immintrin.h>
#else
#define ADA_SIMD_X86 0
#endif

namespace adahealth {
namespace transform {
namespace simd {

namespace {

// --- Scalar baseline ----------------------------------------------------
//
// Four independent accumulators, mirroring the hand-unrolled loop the
// dense kernels used before this TU existed: breaks the sequential add
// chain for pipelining while keeping a fixed combine order.

double DotScalar(const double* a, const double* b, size_t n) {
  double acc0 = 0.0;
  double acc1 = 0.0;
  double acc2 = 0.0;
  double acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

void AxpyScalar(double a, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

// Dimension-outer, centroid-inner: each out[c] still folds its own
// (x[d] - c[d])^2 terms in ascending d from +0.0, exactly as
// SquaredDistance does, while the inner loop walks one contiguous row
// of the transposed block.
void ExactLanesScalar(const double* x, size_t dims, const double* ct,
                      size_t stride, double* out, size_t k) {
  std::fill(out, out + k, 0.0);
  for (size_t d = 0; d < dims; ++d) {
    const double xd = x[d];
    const double* row = ct + d * stride;
    for (size_t c = 0; c < k; ++c) {
      const double diff = xd - row[c];
      out[c] += diff * diff;
    }
  }
}

// Point-outer in tiles of kRowTile, dimension-inner: each accumulator
// is one point's SquaredDistance loop, and the tile's accumulators are
// independent, so their adds pipeline.
void ExactRowsScalar(const double* rows, size_t stride, const double* v,
                     size_t dims, double* out, size_t count) {
  for (size_t p0 = 0; p0 < count; p0 += kRowTile) {
    const size_t tile = std::min(kRowTile, count - p0);
    const double* block = rows + p0 * stride;
    double acc[kRowTile] = {};
    if (tile == kRowTile) {
      for (size_t d = 0; d < dims; ++d) {
        const double vd = v[d];
        for (size_t p = 0; p < kRowTile; ++p) {
          const double diff = block[p * stride + d] - vd;
          acc[p] += diff * diff;
        }
      }
    } else {
      for (size_t d = 0; d < dims; ++d) {
        const double vd = v[d];
        for (size_t p = 0; p < tile; ++p) {
          const double diff = block[p * stride + d] - vd;
          acc[p] += diff * diff;
        }
      }
    }
    std::copy(acc, acc + tile, out + p0);
  }
}

#if ADA_SIMD_X86

// --- AVX2 + FMA ---------------------------------------------------------
//
// Four 256-bit accumulators (16 doubles in flight) hide the FMA
// latency; the horizontal reduction order is fixed, so the kernel is
// deterministic for a given input and ISA. The reassociation versus
// the scalar kernel is covered by FusedRelativeError's envelope.

__attribute__((target("avx2,fma"))) double DotAvx2(const double* a,
                                                   const double* b,
                                                   size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                           _mm256_loadu_pd(b + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                           _mm256_loadu_pd(b + i), acc0);
  }
  acc0 = _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                       _mm256_add_pd(acc2, acc3));
  __m128d lo = _mm256_castpd256_pd128(acc0);
  __m128d hi = _mm256_extractf128_pd(acc0, 1);
  lo = _mm_add_pd(lo, hi);
  double sum = _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

__attribute__((target("avx2,fma"))) void AxpyAvx2(double a, const double* x,
                                                  double* y, size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

// --- AVX2, no FMA: the bit-exact lane kernel -------------------------
//
// Each 64-bit lane is one centroid and runs the scalar SquaredDistance
// operation sequence: a separate subtract, multiply and add per
// dimension, in ascending d, into an accumulator that starts at +0.0.
// IEEE-754 rounds every lane operation exactly as the scalar one, so
// the lane result is the scalar result bit for bit. The target is
// "avx2" alone so the compiler has no FMA to contract the multiply and
// add into (a fused multiply-add rounds once, not twice).

/// N ymm accumulators (4N centroids) over every dimension. The add
/// chain of one lane is inherently serial; N independent chains keep
/// the adder busy while each waits on its own latency.
template <size_t N>
__attribute__((target("avx2"))) void ExactLanesBlockAvx2(
    const double* x, size_t dims, const double* ct, size_t stride,
    double* out) {
  __m256d acc[N];
  for (size_t v = 0; v < N; ++v) acc[v] = _mm256_setzero_pd();
  for (size_t d = 0; d < dims; ++d) {
    const __m256d xd = _mm256_broadcast_sd(x + d);
    const double* row = ct + d * stride;
    for (size_t v = 0; v < N; ++v) {
      const __m256d diff = _mm256_sub_pd(xd, _mm256_loadu_pd(row + 4 * v));
      acc[v] = _mm256_add_pd(acc[v], _mm256_mul_pd(diff, diff));
    }
  }
  for (size_t v = 0; v < N; ++v) _mm256_storeu_pd(out + 4 * v, acc[v]);
}

constexpr size_t kMaxLaneVectors = 8;

__attribute__((target("avx2"))) void ExactLanesAvx2(const double* x,
                                                    size_t dims,
                                                    const double* ct,
                                                    size_t stride,
                                                    double* out, size_t k) {
  double lanes[4 * kMaxLaneVectors];
  for (size_t c0 = 0; c0 < k; c0 += 4 * kMaxLaneVectors) {
    const size_t vectors = (std::min(k - c0, 4 * kMaxLaneVectors) + 3) / 4;
    const double* block = ct + c0;
    switch (vectors) {
      case 1: ExactLanesBlockAvx2<1>(x, dims, block, stride, lanes); break;
      case 2: ExactLanesBlockAvx2<2>(x, dims, block, stride, lanes); break;
      case 3: ExactLanesBlockAvx2<3>(x, dims, block, stride, lanes); break;
      case 4: ExactLanesBlockAvx2<4>(x, dims, block, stride, lanes); break;
      case 5: ExactLanesBlockAvx2<5>(x, dims, block, stride, lanes); break;
      case 6: ExactLanesBlockAvx2<6>(x, dims, block, stride, lanes); break;
      case 7: ExactLanesBlockAvx2<7>(x, dims, block, stride, lanes); break;
      default: ExactLanesBlockAvx2<8>(x, dims, block, stride, lanes); break;
    }
    const size_t take = std::min(k - c0, 4 * vectors);
    std::copy(lanes, lanes + take, out + c0);
  }
}

/// Lane p of the result is dimension d of row p of the 4-row block.
/// Four loads and a 4x4 transpose yield dimensions d .. d + 3 at once.
struct Columns4 {
  __m256d d0, d1, d2, d3;
};

__attribute__((target("avx2"))) inline Columns4 LoadColumns4(
    const double* block, size_t stride, size_t d) {
  const __m256d r0 = _mm256_loadu_pd(block + d);
  const __m256d r1 = _mm256_loadu_pd(block + stride + d);
  const __m256d r2 = _mm256_loadu_pd(block + 2 * stride + d);
  const __m256d r3 = _mm256_loadu_pd(block + 3 * stride + d);
  const __m256d lo01 = _mm256_unpacklo_pd(r0, r1);
  const __m256d hi01 = _mm256_unpackhi_pd(r0, r1);
  const __m256d lo23 = _mm256_unpacklo_pd(r2, r3);
  const __m256d hi23 = _mm256_unpackhi_pd(r2, r3);
  return {_mm256_permute2f128_pd(lo01, lo23, 0x20),
          _mm256_permute2f128_pd(hi01, hi23, 0x20),
          _mm256_permute2f128_pd(lo01, lo23, 0x31),
          _mm256_permute2f128_pd(hi01, hi23, 0x31)};
}

__attribute__((target("avx2"))) inline __m256d FoldDim(__m256d acc,
                                                       __m256d column,
                                                       double vd) {
  const __m256d diff = _mm256_sub_pd(column, _mm256_set1_pd(vd));
  return _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
}

/// Each 64-bit lane is one of kRowTile points (two ymm accumulators of
/// four rows each), folding its dimensions in ascending order exactly
/// as ExactRowsScalar does; a partial last tile goes to the scalar
/// kernel.
__attribute__((target("avx2"))) void ExactRowsAvx2(const double* rows,
                                                   size_t stride,
                                                   const double* v,
                                                   size_t dims, double* out,
                                                   size_t count) {
  static_assert(kRowTile == 8);
  size_t p0 = 0;
  for (; p0 + kRowTile <= count; p0 += kRowTile) {
    const double* lo = rows + p0 * stride;
    const double* hi = lo + 4 * stride;
    __m256d acc_lo = _mm256_setzero_pd();
    __m256d acc_hi = _mm256_setzero_pd();
    size_t d = 0;
    for (; d + 4 <= dims; d += 4) {
      const Columns4 a = LoadColumns4(lo, stride, d);
      const Columns4 b = LoadColumns4(hi, stride, d);
      acc_lo = FoldDim(acc_lo, a.d0, v[d]);
      acc_hi = FoldDim(acc_hi, b.d0, v[d]);
      acc_lo = FoldDim(acc_lo, a.d1, v[d + 1]);
      acc_hi = FoldDim(acc_hi, b.d1, v[d + 1]);
      acc_lo = FoldDim(acc_lo, a.d2, v[d + 2]);
      acc_hi = FoldDim(acc_hi, b.d2, v[d + 2]);
      acc_lo = FoldDim(acc_lo, a.d3, v[d + 3]);
      acc_hi = FoldDim(acc_hi, b.d3, v[d + 3]);
    }
    for (; d < dims; ++d) {
      acc_lo = FoldDim(acc_lo,
                       _mm256_set_pd(lo[3 * stride + d], lo[2 * stride + d],
                                     lo[stride + d], lo[d]),
                       v[d]);
      acc_hi = FoldDim(acc_hi,
                       _mm256_set_pd(hi[3 * stride + d], hi[2 * stride + d],
                                     hi[stride + d], hi[d]),
                       v[d]);
    }
    _mm256_storeu_pd(out + p0, acc_lo);
    _mm256_storeu_pd(out + p0 + 4, acc_hi);
  }
  if (p0 < count) {
    ExactRowsScalar(rows + p0 * stride, stride, v, dims, out + p0,
                    count - p0);
  }
}

bool CpuHasAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#else  // !ADA_SIMD_X86

bool CpuHasAvx2Fma() { return false; }

#endif  // ADA_SIMD_X86

/// True when ADA_SIMD_DISPATCH asks for the scalar path. Read once:
/// the dispatch decision must not change mid-process or two calls with
/// identical inputs could return different bits.
bool ScalarForcedByEnv() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): resolved once under the
  // dispatch-init guard below, before the value is ever published.
  const char* env = std::getenv("ADA_SIMD_DISPATCH");
  return env != nullptr && std::strcmp(env, "scalar") == 0;
}

IsaLevel ResolveIsa() {
  if (!CpuHasAvx2Fma()) return IsaLevel::kScalar;
  if (ScalarForcedByEnv()) return IsaLevel::kScalar;
  return IsaLevel::kAvx2Fma;
}

/// Process-wide dispatch decision, resolved on first use. The testing
/// override narrows it without touching the cached resolution.
std::atomic<int> g_test_override{-1};

IsaLevel DispatchedIsa() {
  static const IsaLevel resolved = ResolveIsa();
  const int pinned = g_test_override.load(std::memory_order_acquire);
  if (pinned < 0) return resolved;
  IsaLevel wanted = static_cast<IsaLevel>(pinned);
  if (wanted == IsaLevel::kAvx2Fma && !CpuHasAvx2Fma()) {
    return IsaLevel::kScalar;
  }
  return wanted;
}

}  // namespace

IsaLevel ActiveIsa() { return DispatchedIsa(); }

const char* IsaName(IsaLevel isa) {
  switch (isa) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kAvx2Fma:
      return "avx2+fma";
  }
  return "?";
}

double DotProduct(std::span<const double> a, std::span<const double> b) {
  ADA_CHECK_EQ(a.size(), b.size());
#if ADA_SIMD_X86
  if (DispatchedIsa() == IsaLevel::kAvx2Fma) {
    return DotAvx2(a.data(), b.data(), a.size());
  }
#endif
  return DotScalar(a.data(), b.data(), a.size());
}

double SquaredNorm(std::span<const double> v) { return DotProduct(v, v); }

void Axpy(double a, std::span<const double> x, std::span<double> y) {
  ADA_CHECK_EQ(x.size(), y.size());
#if ADA_SIMD_X86
  if (DispatchedIsa() == IsaLevel::kAvx2Fma) {
    AxpyAvx2(a, x.data(), y.data(), y.size());
    return;
  }
#endif
  AxpyScalar(a, x.data(), y.data(), y.size());
}

void ExactSquaredDistancesLanes(std::span<const double> x,
                                std::span<const double> centroids_t,
                                size_t stride, std::span<double> out) {
  const size_t dims = x.size();
  const size_t k = out.size();
  ADA_CHECK_EQ(stride % kLaneWidth, 0u);
  ADA_CHECK_LE(k, stride);
  ADA_CHECK_EQ(centroids_t.size(), dims * stride);
#if ADA_SIMD_X86
  if (DispatchedIsa() == IsaLevel::kAvx2Fma) {
    ExactLanesAvx2(x.data(), dims, centroids_t.data(), stride, out.data(), k);
    return;
  }
#endif
  ExactLanesScalar(x.data(), dims, centroids_t.data(), stride, out.data(),
                   k);
}

void ExactSquaredDistancesRows(std::span<const double> rows, size_t stride,
                               std::span<const double> v,
                               std::span<double> out) {
  const size_t dims = v.size();
  const size_t count = out.size();
  if (count == 0) return;
  ADA_CHECK_GE(stride, dims);
  ADA_CHECK_GE(rows.size(), (count - 1) * stride + dims);
#if ADA_SIMD_X86
  if (DispatchedIsa() == IsaLevel::kAvx2Fma) {
    ExactRowsAvx2(rows.data(), stride, v.data(), dims, out.data(), count);
    return;
  }
#endif
  ExactRowsScalar(rows.data(), stride, v.data(), dims, out.data(), count);
}

namespace internal {

void SetIsaForTesting(IsaLevel isa) {
  g_test_override.store(static_cast<int>(isa), std::memory_order_release);
}

void ResetIsaForTesting() {
  g_test_override.store(-1, std::memory_order_release);
}

bool Avx2Available() { return CpuHasAvx2Fma(); }

}  // namespace internal

}  // namespace simd
}  // namespace transform
}  // namespace adahealth
