// Runtime-dispatched SIMD kernels for the dense distance hot path.
//
// This is the only translation unit in the tree allowed to touch
// <immintrin.h> (enforced by the ada_lint `simd-intrinsics` rule). The
// public entry points dispatch once, at first use, between a scalar
// implementation (always compiled, the portable baseline) and an
// AVX2+FMA implementation (compiled behind function-level target
// attributes, taken only when __builtin_cpu_supports says the CPU has
// both). Build with -DADA_SIMD=OFF to compile the scalar path alone;
// set ADA_SIMD_DISPATCH=scalar in the environment to force the scalar
// path at runtime on AVX2 hardware (CI runs the whole k-means suite
// both ways).
//
// Contract: every kernel here except one is *error-bounded*, not
// bit-exact. A SIMD sum reassociates the scalar reduction, so
// DotProduct, SquaredNorm and Axpy may differ from their scalar
// counterparts by up to the caller-visible rounding envelope
// (transform::FusedRelativeError for the fused distance form); they
// feed only error-padded screens and bounds.
//
// The exceptions are ExactSquaredDistancesLanes (one point to many
// centroids) and ExactSquaredDistancesRows (many points to one
// centroid), which are bit-identical to transform::SquaredDistance on
// every ISA. They never reassociate: each SIMD lane (or scalar
// accumulator) is one distance and performs the scalar loop's exact
// operation sequence — a separate subtract, multiply and add per
// dimension, folded in ascending dimension order from +0.0 — and
// IEEE-754 rounds a lane operation exactly as the scalar one. Their
// AVX2 bodies are compiled for "avx2" without "fma", so the compiler
// cannot contract the multiply and add into one differently-rounded
// FMA. Exact consumers (the bit-identity contract between the k-means
// engines) may therefore use them in place of a SquaredDistance loop.
//
// Within one process the dispatch decision is made once, so repeated
// calls with the same inputs return the same bits.
#ifndef ADAHEALTH_TRANSFORM_SIMD_KERNELS_H_
#define ADAHEALTH_TRANSFORM_SIMD_KERNELS_H_

#include <cstddef>
#include <span>

namespace adahealth {
namespace transform {
namespace simd {

/// Instruction set actually selected by the runtime dispatcher.
enum class IsaLevel {
  kScalar,
  kAvx2Fma,
};

/// The ISA the process-wide dispatcher resolved to: kAvx2Fma when the
/// build has the AVX2 kernels compiled in (ADA_SIMD=ON, x86-64), the
/// CPU reports avx2+fma, and ADA_SIMD_DISPATCH does not override it;
/// kScalar otherwise. Resolved once on first call.
IsaLevel ActiveIsa();

/// Human-readable name of `isa` ("scalar" / "avx2+fma"), for bench
/// output and logs.
const char* IsaName(IsaLevel isa);

/// Sum of a[i] * b[i]. Reassociated reduction; error-bounded, not
/// bit-identical to transform::Dot.
double DotProduct(std::span<const double> a, std::span<const double> b);

/// ‖v‖² = DotProduct(v, v) without the second pointer walk.
double SquaredNorm(std::span<const double> v);

/// y[i] += a * x[i] for i in [0, y.size()). The sparse fused-distance
/// screen drives this with x = one row of the transposed centroid
/// block and a = one non-zero of the point, so the accumulation order
/// per output lane is the entry order of the sparse row — fixed and
/// deterministic for a given ISA.
void Axpy(double a, std::span<const double> x, std::span<double> y);

/// Lane width of ExactSquaredDistancesLanes: a transposed centroid
/// block's row stride must be a multiple of it.
inline constexpr size_t kLaneWidth = 4;

/// Exact squared Euclidean distances from `x` to k = out.size()
/// centroids at once. `centroids_t` is the transposed centroid block:
/// x.size() rows of `stride` doubles, where element d * stride + c is
/// dimension d of centroid c. `stride` is a multiple of kLaneWidth and
/// at least k; the padding columns are read but never reported.
/// Each out[c] is bit-identical to SquaredDistance(x, centroid c)
/// whichever ISA is dispatched (see the contract above).
void ExactSquaredDistancesLanes(std::span<const double> x,
                                std::span<const double> centroids_t,
                                size_t stride, std::span<double> out);

/// Points that ExactSquaredDistancesRows folds in lockstep.
inline constexpr size_t kRowTile = 8;

/// Exact squared Euclidean distances from out.size() points to the one
/// vector `v`: point p is rows[p * stride, p * stride + v.size()), so a
/// row-major matrix block is passed as is. Each out[p] is bit-identical
/// to SquaredDistance(point p, v) whichever ISA is dispatched (see the
/// contract above). kRowTile points fold their own dimension sequences
/// side by side, so their adds overlap instead of forming one latency
/// chain per point.
void ExactSquaredDistancesRows(std::span<const double> rows, size_t stride,
                               std::span<const double> v,
                               std::span<double> out);

namespace internal {

/// Test hook: pins ActiveIsa() to `isa` (kAvx2Fma requests are ignored
/// unless the build and CPU support it — the hook can only narrow).
/// Pass the value returned by ResetIsaForTesting to restore. Not
/// thread-safe; tests drive it single-threaded.
void SetIsaForTesting(IsaLevel isa);

/// Clears a SetIsaForTesting override, returning dispatch to the
/// process-wide decision.
void ResetIsaForTesting();

/// True when the AVX2+FMA kernels are compiled in and the CPU supports
/// them (ignores the environment override and test pins).
// ada-lint: allow(unreached-symbol) simd_kernels_test and kmeans_test skip
// their AVX2 cases on hosts without it.
bool Avx2Available();

}  // namespace internal

}  // namespace simd
}  // namespace transform
}  // namespace adahealth

#endif  // ADAHEALTH_TRANSFORM_SIMD_KERNELS_H_
