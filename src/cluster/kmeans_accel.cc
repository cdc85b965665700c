#include "cluster/kmeans_accel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "transform/simd_kernels.h"
#include "transform/sparse_matrix.h"

namespace adahealth {
namespace cluster {

namespace {

using common::Rng;
using common::StatusOr;
using transform::CsrMatrix;
using transform::Matrix;
using transform::SquaredDistance;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Minimum per-pass work estimate before a pass is worth fanning out to
/// the shared pool (the work-budget heuristic: small matrices stay
/// serial, where pool hand-off would cost more than the scan itself).
constexpr size_t kMinParallelWork = size_t{1} << 20;

/// Below this many clusters the Hamerly bookkeeping is pure overhead:
/// a successful prune saves at most k-1 distance screens, while the
/// bound maintenance (tighten distances, drift updates, per-point
/// bound decay) costs a constant amount per point per pass regardless
/// of k. At k <= 3 the engine therefore skips the bounds entirely and
/// full-scans every point (exact lanes on dense rows, the fused screen
/// on CSR rows) — still bit-identical, and never slower than the naive
/// scan because both scans are vectorized kernels.
constexpr size_t kMinClustersForBounds = 4;

/// Estimated distance-kernel work of one full assignment pass; the
/// sparse screen touches only the non-zeros, so its budget counts nnz
/// instead of n x dims.
inline size_t PassWork(const Matrix& data, size_t k) {
  return data.rows() * k * data.cols();
}
inline size_t PassWork(const CsrMatrix& data, size_t k) {
  return data.num_nonzeros() * k;
}

/// Relative padding applied to every derived Euclidean bound so that
/// accumulated floating-point rounding (sqrt, drift additions) can
/// never turn a conservative bound optimistic. Scales with dims
/// because the underlying squared-distance rounding does.
double BoundPad(size_t dims) {
  return 8.0 * static_cast<double>(dims + 8) *
         std::numeric_limits<double>::epsilon();
}

/// Per-point Hamerly state. `upper[i]` always >= dist(x_i, centroid of
/// assignment[i]); `lower[i]` always <= distance from x_i to its
/// second-closest centroid. Both are Euclidean (not squared) so the
/// triangle-inequality drift updates compose additively.
struct Bounds {
  std::vector<int32_t> assignment;
  std::vector<double> upper;
  std::vector<double> lower;
};

/// Everything a pass over the points needs, shared read-only across
/// chunks (per-point writes touch disjoint rows).
template <typename Data>
struct PassContext {
  const Data* data = nullptr;
  const Matrix* centroids = nullptr;
  /// Transposed (dims x stride) centroid block, rebuilt once per pass:
  /// the dense exact lanes read it with the stride padded to a lane
  /// multiple, the sparse screen with stride == k.
  const Matrix* centroids_t = nullptr;
  const std::vector<double>* row_norms = nullptr;
  const std::vector<double>* centroid_norms = nullptr;
  const std::vector<double>* half_separation = nullptr;  // s[c].
  double pad_up = 1.0;
  double pad_down = 1.0;
  double fused_err = 0.0;
};

/// Per-chunk k-sized scratch for FullScanPoint.
struct ScanScratch {
  explicit ScanScratch(size_t k) : dist(k), lower_est(k) {}
  std::vector<double> dist;
  std::vector<double> lower_est;
};

/// Column count of the transposed centroid block: padded to the exact
/// lane kernel's width on the dense path, exactly k for the sparse
/// screen (which treats every column as a centroid).
inline size_t BlockStride(const Matrix& /*data*/, size_t k) {
  return (k + transform::simd::kLaneWidth - 1) /
         transform::simd::kLaneWidth * transform::simd::kLaneWidth;
}
inline size_t BlockStride(const CsrMatrix& /*data*/, size_t k) { return k; }

/// Rebuilds the transposed centroid block. Padding columns are zeroed
/// when the block is allocated and never written after.
template <typename Data>
void TransposeCentroids(const Data& data, const Matrix& centroids,
                        Matrix& centroids_t) {
  const size_t k = centroids.rows();
  const size_t dims = centroids.cols();
  const size_t stride = BlockStride(data, k);
  if (centroids_t.rows() != dims || centroids_t.cols() != stride) {
    centroids_t = Matrix(dims, stride);
  }
  for (size_t c = 0; c < k; ++c) {
    std::span<const double> row = centroids.Row(c);
    for (size_t d = 0; d < dims; ++d) centroids_t.At(d, c) = row[d];
  }
}

/// x_i . v: the SIMD dot on dense rows, one product per non-zero (in
/// entry order) on CSR rows. Both reduction orders are inside
/// FusedRelativeError's envelope.
inline double RowDot(const Matrix& data, size_t i,
                     std::span<const double> v) {
  return transform::simd::DotProduct(data.Row(i), v);
}
inline double RowDot(const CsrMatrix& data, size_t i,
                     std::span<const double> v) {
  double sum = 0.0;
  for (const transform::SparseEntry& entry : data.Row(i)) {
    sum += entry.value * v[entry.column];
  }
  return sum;
}

/// Unpadded Euclidean upper bound from a fused squared distance
/// ‖x‖² + ‖c‖² − 2·x·c: by FusedRelativeError's contract, fused + err
/// is at least the exact squared distance.
inline double FusedUpper(double fused, double x_norm2, double c_norm2,
                         double fused_err) {
  const double err = fused_err * (x_norm2 + c_norm2);
  return std::sqrt(std::max(0.0, fused + err));
}

/// Stores point `i`'s new assignment and, when `track_bounds`, its
/// padded Hamerly bounds from the unpadded Euclidean `upper` and
/// `second` (the second-best lower estimate; kInf for k == 1).
/// Returns true if the assignment changed.
template <typename Data>
bool Commit(const PassContext<Data>& ctx, size_t i, int32_t best_c,
            bool track_bounds, double upper, double second,
            Bounds& bounds) {
  const bool changed = bounds.assignment[i] != best_c;
  bounds.assignment[i] = best_c;
  if (track_bounds) {
    bounds.upper[i] = upper * ctx.pad_up;
    bounds.lower[i] = second == kInf ? kInf : second * ctx.pad_down;
  }
  return changed;
}

/// Dense full re-assignment of point `i`: one exact lane-kernel call
/// computes SquaredDistance to every centroid bit for bit, and the
/// argmin runs in index order with the naive scan's strict-< tie-break
/// from the same starting value — so the winner (and therefore every
/// downstream centroid and SSE bit) matches the naive engine exactly.
/// The bounds come from the same exact distances. When `track_bounds`
/// is false (small-k runs, where the Hamerly state is never read) the
/// bound updates and their sqrts are skipped.
bool FullScanPoint(const PassContext<Matrix>& ctx, size_t i,
                   bool track_bounds, ScanScratch& scratch,
                   Bounds& bounds) {
  const Matrix& block = *ctx.centroids_t;
  std::vector<double>& dist = scratch.dist;
  transform::simd::ExactSquaredDistancesLanes(ctx.data->Row(i), block.data(),
                                              block.cols(), dist);
  const size_t k = dist.size();
  double best_d2 = std::numeric_limits<double>::max();
  int32_t best_c = 0;
  for (size_t c = 0; c < k; ++c) {
    if (dist[c] < best_d2) {
      best_d2 = dist[c];
      best_c = static_cast<int32_t>(c);
    }
  }
  if (!track_bounds) return Commit(ctx, i, best_c, false, 0.0, 0.0, bounds);
  double second = kInf;
  for (size_t c = 0; c < k; ++c) {
    if (static_cast<int32_t>(c) != best_c) second = std::min(second, dist[c]);
  }
  return Commit(ctx, i, best_c, true,
                std::sqrt(dist[static_cast<size_t>(best_c)]),
                second == kInf ? kInf : std::sqrt(second), bounds);
}

/// Sparse full re-assignment of point `i`, bit-identical to the naive
/// scan. The O(nnz * k) fused screen runs first: the exact argmin is
/// always among the centroids whose conservative interval
/// [fused - err, fused + err] reaches the smallest interval upper end
/// (its own interval contains the true minimum). When exactly one
/// centroid survives the screen it IS the exact argmin, so the winner
/// is decided with no O(dims) exact distance at all. Only a near-tie
/// inside the error envelope (rare: genuine duplicates or ~1e-13
/// relative gaps) falls back to exact distances, scanned in index
/// order with the naive strict-< tie-break.
bool FullScanPoint(const PassContext<CsrMatrix>& ctx, size_t i,
                   bool track_bounds, ScanScratch& scratch,
                   Bounds& bounds) {
  const Matrix& centroids = *ctx.centroids;
  const size_t k = centroids.rows();
  const double x_norm2 = (*ctx.row_norms)[i];
  const std::vector<double>& c_norms = *ctx.centroid_norms;
  std::vector<double>& fused = scratch.dist;
  std::vector<double>& lower_est = scratch.lower_est;

  transform::SparseSquaredDistanceToAll(ctx.data->Row(i), x_norm2,
                                        *ctx.centroids_t, c_norms, fused);
  double screen = kInf;
  for (size_t c = 0; c < k; ++c) {
    const double err = ctx.fused_err * (x_norm2 + c_norms[c]);
    screen = std::min(screen, fused[c] + err);
  }

  size_t candidates = 0;
  size_t winner = 0;
  for (size_t c = 0; c < k; ++c) {
    const double err = ctx.fused_err * (x_norm2 + c_norms[c]);
    const double low = fused[c] - err;
    if (track_bounds) {
      // Screened-out centroids are provably farther than the winner; a
      // padded Euclidean lower estimate is all the second-best bound
      // needs. (Candidates get the exact value below.)
      lower_est[c] = std::sqrt(low > 0.0 ? low : 0.0);
    }
    if (low <= screen) {
      ++candidates;
      winner = c;
    }
  }

  int32_t best_c;
  double upper = 0.0;
  if (candidates == 1) {
    best_c = static_cast<int32_t>(winner);
    if (track_bounds) {
      upper = FusedUpper(fused[winner], x_norm2, c_norms[winner],
                         ctx.fused_err);
    }
  } else {
    double best_d2 = kInf;
    best_c = 0;
    for (size_t c = 0; c < k; ++c) {
      const double err = ctx.fused_err * (x_norm2 + c_norms[c]);
      if (fused[c] - err > screen) continue;
      const double d2 =
          internal::ExactRowDistance(*ctx.data, i, centroids.Row(c));
      if (track_bounds) lower_est[c] = std::sqrt(d2);
      if (d2 < best_d2) {
        best_d2 = d2;
        best_c = static_cast<int32_t>(c);
      }
    }
    upper = std::sqrt(best_d2);
  }

  if (!track_bounds) return Commit(ctx, i, best_c, false, 0.0, 0.0, bounds);
  double second = kInf;
  for (size_t c = 0; c < k; ++c) {
    if (static_cast<int32_t>(c) == best_c) continue;
    second = std::min(second, lower_est[c]);
  }
  return Commit(ctx, i, best_c, true, upper, second, bounds);
}

template <typename Data>
StatusOr<Clustering> RunAccelImpl(const Data& data,
                                  const KMeansOptions& options,
                                  common::ThreadPool& pool) {
  common::Status valid = internal::ValidateKMeansArgs(data, options);
  if (!valid.ok()) return valid;

  const size_t n = data.rows();
  const size_t dims = data.cols();
  const size_t k = static_cast<size_t>(options.k);

  Rng rng(options.seed);
  Clustering result;
  result.k = options.k;
  result.centroids = internal::StartingCentroids(data, options, rng);

  const std::vector<double> row_norms = transform::RowSquaredNorms(data);
  const double pad_up = 1.0 + BoundPad(dims);
  const double pad_down = 1.0 - BoundPad(dims);
  const double fused_err = transform::FusedRelativeError(dims);

  Bounds bounds;
  bounds.assignment.assign(n, 0);
  bounds.upper.assign(n, 0.0);
  bounds.lower.assign(n, 0.0);
  std::vector<double> centroid_norms(k, 0.0);
  std::vector<double> half_separation(k, kInf);
  std::vector<double> drift(k, 0.0);
  Matrix centroids_t;

  const bool parallel =
      pool.num_threads() > 1 && PassWork(data, k) >= kMinParallelWork;
  const bool use_bounds = k >= kMinClustersForBounds;

  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  common::Counter& skipped_counter =
      metrics.GetCounter("kmeans/skipped_distance_checks");
  common::Counter& recompute_counter =
      metrics.GetCounter("kmeans/bound_recomputes");
  common::Counter& chunks_counter =
      metrics.GetCounter("kmeans/parallel_chunks");
  if (!use_bounds) {
    metrics.GetCounter("kmeans/smallk_unbounded_runs").Increment();
  }

  PassContext<Data> ctx;
  ctx.data = &data;
  ctx.centroids = &result.centroids;
  ctx.centroids_t = &centroids_t;
  ctx.row_norms = &row_norms;
  ctx.centroid_norms = &centroid_norms;
  ctx.half_separation = &half_separation;
  ctx.pad_up = pad_up;
  ctx.pad_down = pad_down;
  ctx.fused_err = fused_err;

  // One assignment pass. `first` forces a full scan of every point
  // (and, mirroring the naive engine's empty-previous comparison,
  // reports every point as changed); later passes consult the bounds —
  // unless this is a small-k run, where every pass is a full scan.
  auto assignment_pass = [&](bool first) -> int64_t {
    for (size_t c = 0; c < k; ++c) {
      std::span<const double> row = result.centroids.Row(c);
      centroid_norms[c] = transform::Dot(row, row);
    }
    TransposeCentroids(data, result.centroids, centroids_t);
    std::atomic<int64_t> changed_total{0};
    std::atomic<int64_t> skipped_total{0};
    std::atomic<int64_t> recompute_total{0};
    auto chunk_body = [&](size_t chunk_begin, size_t chunk_end) {
      ScanScratch scratch(k);
      int64_t changed = 0;
      int64_t skipped = 0;
      int64_t recomputes = 0;
      const int64_t all_k = static_cast<int64_t>(k);
      for (size_t i = chunk_begin; i < chunk_end; ++i) {
        if (first) {
          FullScanPoint(ctx, i, use_bounds, scratch, bounds);
          ++changed;
          continue;
        }
        if (!use_bounds) {
          if (FullScanPoint(ctx, i, false, scratch, bounds)) {
            ++changed;
          }
          continue;
        }
        const size_t a = static_cast<size_t>(bounds.assignment[i]);
        const double prune_at =
            std::max(bounds.lower[i], half_separation[a]);
        if (bounds.upper[i] < prune_at) {
          skipped += all_k;
          continue;
        }
        // Tighten the upper bound with one fused distance (an O(dims)
        // SIMD dot on dense rows, O(nnz) on CSR rows); most
        // drift-inflated bounds collapse below the prune line here.
        // fused + err is at least the exact squared distance, so this
        // bound is never tighter than the exact one and every prune it
        // allows, the exact bound would have allowed too.
        const double fused = row_norms[i] + centroid_norms[a] -
                             2.0 * RowDot(data, i, result.centroids.Row(a));
        ++recomputes;
        bounds.upper[i] = FusedUpper(fused, row_norms[i], centroid_norms[a],
                                     fused_err) *
                          pad_up;
        if (bounds.upper[i] < prune_at) {
          skipped += all_k - 1;
          continue;
        }
        if (FullScanPoint(ctx, i, true, scratch, bounds)) {
          ++changed;
        }
      }
      changed_total.fetch_add(changed, std::memory_order_relaxed);
      skipped_total.fetch_add(skipped, std::memory_order_relaxed);
      recompute_total.fetch_add(recomputes, std::memory_order_relaxed);
    };
    if (parallel) {
      size_t chunks = common::ParallelForChunks(pool, 0, n, chunk_body);
      chunks_counter.Increment(static_cast<int64_t>(chunks));
    } else {
      chunk_body(0, n);
    }
    skipped_counter.Increment(skipped_total.load());
    recompute_counter.Increment(recompute_total.load());
    return changed_total.load();
  };

  // Centroid recomputation on the fixed chunk grid shared with the
  // naive engine: chunk partials merged in chunk order produce the
  // same bits whether the partials were computed serially or on the
  // pool.
  auto recompute_centroids = [&]() {
    if (!parallel || n <= internal::kCentroidChunkRows) {
      RecomputeCentroids(data, bounds.assignment, result.centroids);
      return;
    }
    const size_t num_chunks =
        (n + internal::kCentroidChunkRows - 1) /
        internal::kCentroidChunkRows;
    std::vector<internal::CentroidAccumulator> parts(num_chunks);
    size_t chunks = common::ParallelForChunks(
        pool, 0, n,
        [&](size_t chunk_begin, size_t chunk_end) {
          const size_t id = chunk_begin / internal::kCentroidChunkRows;
          parts[id] = internal::CentroidAccumulator(k, dims);
          internal::AccumulateRows(data, bounds.assignment, chunk_begin,
                                   chunk_end, parts[id]);
        },
        internal::kCentroidChunkRows);
    chunks_counter.Increment(static_cast<int64_t>(chunks));
    internal::CentroidAccumulator total(k, dims);
    for (size_t id = 0; id < num_chunks; ++id) {
      internal::MergeAccumulator(parts[id], total);
    }
    internal::FinalizeCentroids(data, bounds.assignment, total,
                                result.centroids);
  };

  common::WallTimer assign_timer;
  double assign_seconds = 0.0;
  int64_t assign_passes = 0;
  Matrix old_centroids;

  for (int32_t iter = 0; iter < options.max_iterations; ++iter) {
    assign_timer.Restart();
    const int64_t changed = assignment_pass(iter == 0);
    assign_seconds += assign_timer.ElapsedSeconds();
    ++assign_passes;
    result.iterations = iter + 1;
    if (changed == 0) {
      result.converged = true;
      break;
    }
    if (use_bounds) old_centroids = result.centroids;
    recompute_centroids();
    if (!use_bounds) continue;  // Small k: no bounds to maintain.

    // Bound maintenance: each centroid's padded drift loosens the
    // upper bound of its members; the maximum drift loosens every
    // lower bound; half the deflated nearest-other-centroid distance
    // gives the additional Hamerly prune line s[c].
    double max_drift = 0.0;
    for (size_t c = 0; c < k; ++c) {
      drift[c] = std::sqrt(SquaredDistance(old_centroids.Row(c),
                                           result.centroids.Row(c))) *
                 pad_up;
      max_drift = std::max(max_drift, drift[c]);
    }
    for (size_t i = 0; i < n; ++i) {
      bounds.upper[i] =
          (bounds.upper[i] + drift[static_cast<size_t>(
                                 bounds.assignment[i])]) *
          pad_up;
      const double lowered = bounds.lower[i] - max_drift;
      bounds.lower[i] = lowered > 0.0 ? lowered * pad_down : 0.0;
    }
    for (size_t c = 0; c < k; ++c) {
      double nearest = kInf;
      for (size_t other = 0; other < k; ++other) {
        if (other == c) continue;
        nearest = std::min(
            nearest, SquaredDistance(result.centroids.Row(c),
                                     result.centroids.Row(other)));
      }
      half_separation[c] =
          nearest == kInf ? kInf : 0.5 * std::sqrt(nearest) * pad_down;
    }
  }

  if (!result.converged) {
    // Mirror the naive engine: the loop exited after a recompute, so
    // the assignment is stale against the final centroids.
    assign_timer.Restart();
    assignment_pass(false);
    assign_seconds += assign_timer.ElapsedSeconds();
    ++assign_passes;
  }

  // Final SSE: the naive engine folds the exact per-point distances in
  // row order during its last pass; computing the identical terms
  // (possibly in parallel) and folding them in the identical order
  // reproduces its sum bit for bit.
  std::vector<double> terms(n);
  auto term_body = [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t i = chunk_begin; i < chunk_end; ++i) {
      terms[i] = internal::ExactRowDistance(
          data, i, result.centroids.Row(
                       static_cast<size_t>(bounds.assignment[i])));
    }
  };
  if (parallel) {
    size_t chunks = common::ParallelForChunks(pool, 0, n, term_body);
    chunks_counter.Increment(static_cast<int64_t>(chunks));
  } else {
    term_body(0, n);
  }
  double sse = 0.0;
  for (size_t i = 0; i < n; ++i) sse += terms[i];
  result.sse = sse;
  result.assignments = std::move(bounds.assignment);

  metrics.GetCounter("kmeans/runs").Increment();
  metrics.GetCounter("kmeans/iterations").Increment(result.iterations);
  metrics.GetCounter("kmeans/assign_passes").Increment(assign_passes);
  metrics.GetHistogram("kmeans/assign_seconds").Record(assign_seconds);
  return result;
}

}  // namespace

StatusOr<Clustering> RunAcceleratedKMeans(const Matrix& data,
                                          const KMeansOptions& options) {
  return internal::RunAcceleratedKMeansOnPool(data, options,
                                              common::ThreadPool::Shared());
}

StatusOr<Clustering> RunAcceleratedKMeans(const CsrMatrix& data,
                                          const KMeansOptions& options) {
  return internal::RunAcceleratedKMeansOnPool(data, options,
                                              common::ThreadPool::Shared());
}

namespace internal {

StatusOr<Clustering> RunAcceleratedKMeansOnPool(const Matrix& data,
                                                const KMeansOptions& options,
                                                common::ThreadPool& pool) {
  return RunAccelImpl(data, options, pool);
}

StatusOr<Clustering> RunAcceleratedKMeansOnPool(const CsrMatrix& data,
                                                const KMeansOptions& options,
                                                common::ThreadPool& pool) {
  return RunAccelImpl(data, options, pool);
}

}  // namespace internal

}  // namespace cluster
}  // namespace adahealth
