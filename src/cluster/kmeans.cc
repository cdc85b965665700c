#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/kmeans_accel.h"
#include "common/check.h"
#include "common/metrics.h"
#include "transform/simd_kernels.h"

namespace adahealth {
namespace cluster {

using common::Rng;
using common::StatusOr;
using transform::CsrMatrix;
using transform::Matrix;
namespace simd = transform::simd;

namespace {

using internal::CopyRowInto;
using internal::ExactRowDistance;

// Representation-generic row-sum step of the centroid reduction.
inline void AddRowTo(const Matrix& data, size_t i, std::span<double> sum) {
  std::span<const double> point = data.Row(i);
  for (size_t d = 0; d < sum.size(); ++d) sum[d] += point[d];
}
inline void AddRowTo(const CsrMatrix& data, size_t i,
                     std::span<double> sum) {
  // Adding only the non-zeros matches the dense loop bit for bit: the
  // skipped `+= 0.0` terms cannot change any finite partial sum.
  transform::AccumulateRow(data.Row(i), sum);
}

template <typename Data>
Matrix InitializeCentroidsImpl(const Data& data, int32_t k, KMeansInit init,
                               Rng& rng) {
  const size_t n = data.rows();
  ADA_CHECK_GE(k, 1);
  ADA_CHECK_LE(static_cast<size_t>(k), n);
  Matrix centroids(static_cast<size_t>(k), data.cols());

  if (init == KMeansInit::kRandom) {
    std::vector<size_t> picks =
        rng.SampleWithoutReplacement(n, static_cast<size_t>(k));
    for (size_t c = 0; c < picks.size(); ++c) {
      CopyRowInto(data, picks[c], centroids.Row(c));
    }
    return centroids;
  }

  // k-means++ (Arthur & Vassilvitskii): first centroid uniform, each
  // further centroid sampled proportionally to its squared distance to
  // the closest chosen centroid. The D^2 weights are materialized as a
  // prefix sum once per centroid so the draw is a binary search instead
  // of a linear cumulative scan.
  std::vector<double> min_distance(n, std::numeric_limits<double>::max());
  std::vector<double> distance(n);
  std::vector<double> prefix(n);
  size_t first = static_cast<size_t>(rng.UniformUint64(n));
  CopyRowInto(data, first, centroids.Row(0));
  for (int32_t c = 1; c < k; ++c) {
    std::span<const double> last = centroids.Row(static_cast<size_t>(c - 1));
    internal::ExactRowDistances(data, last, distance);
    double cumulative = 0.0;
    for (size_t i = 0; i < n; ++i) {
      min_distance[i] = std::min(min_distance[i], distance[i]);
      cumulative += min_distance[i];
      prefix[i] = cumulative;
    }
    const double total = prefix[n - 1];
    size_t chosen;
    if (total > 0.0) {
      double target = rng.UniformDouble() * total;
      // First index whose cumulative weight exceeds target; clamp to
      // the last point when rounding pushes target past the total.
      auto it = std::upper_bound(prefix.begin(), prefix.end(), target);
      chosen = it == prefix.end()
                   ? n - 1
                   : static_cast<size_t>(it - prefix.begin());
    } else {
      // All remaining distances zero (duplicated points): pick uniformly.
      chosen = static_cast<size_t>(rng.UniformUint64(n));
    }
    CopyRowInto(data, chosen, centroids.Row(static_cast<size_t>(c)));
  }
  return centroids;
}

template <typename Data>
double AssignToCentroidsImpl(const Data& data, const Matrix& centroids,
                             std::vector<int32_t>& assignments) {
  const size_t n = data.rows();
  const size_t k = centroids.rows();
  ADA_CHECK_GE(k, 1u);
  assignments.resize(n);
  double sse = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::max();
    int32_t best_c = 0;
    for (size_t c = 0; c < k; ++c) {
      double d = ExactRowDistance(data, i, centroids.Row(c));
      if (d < best) {
        best = d;
        best_c = static_cast<int32_t>(c);
      }
    }
    assignments[i] = best_c;
    sse += best;
  }
  return sse;
}

template <typename Data>
void AccumulateRowsImpl(const Data& data,
                        const std::vector<int32_t>& assignments,
                        size_t begin, size_t end,
                        internal::CentroidAccumulator& acc) {
  const size_t k = acc.sums.rows();
  for (size_t i = begin; i < end; ++i) {
    int32_t c = assignments[i];
    ADA_CHECK_GE(c, 0);
    ADA_CHECK_LT(static_cast<size_t>(c), k);
    ++acc.counts[static_cast<size_t>(c)];
    AddRowTo(data, i, acc.sums.Row(static_cast<size_t>(c)));
  }
}

template <typename Data>
void FinalizeCentroidsImpl(const Data& data,
                           const std::vector<int32_t>& assignments,
                           internal::CentroidAccumulator& acc,
                           Matrix& centroids) {
  const size_t k = centroids.rows();
  const size_t dims = centroids.cols();
  std::vector<int64_t>& counts = acc.counts;
  for (size_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;
    std::span<const double> sum = acc.sums.Row(c);
    std::span<double> centroid = centroids.Row(c);
    for (size_t d = 0; d < dims; ++d) {
      centroid[d] = sum[d] / static_cast<double>(counts[c]);
    }
  }
  // Re-seed empty clusters with the point farthest from its centroid so
  // that every cluster stays non-empty. Each donor point may seed only
  // one cluster, and donating decrements its cluster's count, so two
  // clusters emptied in the same iteration get distinct seeds.
  std::vector<bool> consumed;
  for (size_t c = 0; c < k; ++c) {
    if (counts[c] != 0) continue;
    if (consumed.empty()) consumed.assign(data.rows(), false);
    double worst = -1.0;
    size_t worst_point = 0;
    for (size_t i = 0; i < data.rows(); ++i) {
      if (consumed[i]) continue;
      size_t assigned = static_cast<size_t>(assignments[i]);
      if (counts[assigned] <= 1) continue;  // Don't empty another cluster.
      double d = ExactRowDistance(data, i, centroids.Row(assigned));
      if (d > worst) {
        worst = d;
        worst_point = i;
      }
    }
    if (worst >= 0.0) {
      CopyRowInto(data, worst_point, centroids.Row(c));
      consumed[worst_point] = true;
      --counts[static_cast<size_t>(assignments[worst_point])];
      counts[c] = 1;
      common::MetricsRegistry::Default()
          .GetCounter("kmeans/reseeded_clusters")
          .Increment();
    }
  }
}

template <typename Data>
common::Status ValidateKMeansArgsImpl(const Data& data,
                                      const KMeansOptions& options) {
  if (data.rows() == 0 || data.cols() == 0) {
    return common::InvalidArgumentError("k-means requires non-empty data");
  }
  if (options.k < 1 || static_cast<size_t>(options.k) > data.rows()) {
    return common::InvalidArgumentError(
        "k must be in [1, number of points]");
  }
  if (options.max_iterations < 1) {
    return common::InvalidArgumentError("max_iterations must be >= 1");
  }
  if (!options.initial_centroids.empty() &&
      (options.initial_centroids.rows() !=
           static_cast<size_t>(options.k) ||
       options.initial_centroids.cols() != data.cols())) {
    return common::InvalidArgumentError(
        "initial_centroids must be a k x data.cols() matrix");
  }
  return common::OkStatus();
}

template <typename Data>
Matrix StartingCentroidsImpl(const Data& data, const KMeansOptions& options,
                             Rng& rng) {
  if (!options.initial_centroids.empty()) return options.initial_centroids;
  return InitializeCentroids(data, options.k, options.init, rng);
}

template <typename Data>
void RecomputeCentroidsImpl(const Data& data,
                            const std::vector<int32_t>& assignments,
                            Matrix& centroids) {
  const size_t k = centroids.rows();
  const size_t dims = centroids.cols();
  ADA_CHECK_EQ(assignments.size(), data.rows());
  // Fixed-grid chunked reduction: per-chunk partials merged in chunk
  // order. The accelerated engine computes the same partials in
  // parallel and merges them in the same order, so both engines arrive
  // at bit-identical centroids.
  internal::CentroidAccumulator total(k, dims);
  if (data.rows() <= internal::kCentroidChunkRows) {
    internal::AccumulateRows(data, assignments, 0, data.rows(), total);
  } else {
    internal::CentroidAccumulator part(k, dims);
    for (size_t begin = 0; begin < data.rows();
         begin += internal::kCentroidChunkRows) {
      const size_t end =
          std::min(data.rows(), begin + internal::kCentroidChunkRows);
      part.sums = Matrix(k, dims, 0.0);
      std::fill(part.counts.begin(), part.counts.end(), 0);
      internal::AccumulateRows(data, assignments, begin, end, part);
      internal::MergeAccumulator(part, total);
    }
  }
  internal::FinalizeCentroids(data, assignments, total, centroids);
}

template <typename Data>
StatusOr<Clustering> RunNaiveKMeansImpl(const Data& data,
                                        const KMeansOptions& options) {
  Rng rng(options.seed);
  Clustering result;
  result.k = options.k;
  result.centroids = internal::StartingCentroids(data, options, rng);

  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  common::WallTimer assign_timer;
  double assign_seconds = 0.0;
  int64_t assign_passes = 0;

  std::vector<int32_t> previous;
  for (int32_t iter = 0; iter < options.max_iterations; ++iter) {
    assign_timer.Restart();
    result.sse = AssignToCentroids(data, result.centroids,
                                   result.assignments);
    assign_seconds += assign_timer.ElapsedSeconds();
    ++assign_passes;
    result.iterations = iter + 1;
    if (result.assignments == previous) {
      result.converged = true;
      break;
    }
    previous = result.assignments;
    RecomputeCentroids(data, result.assignments, result.centroids);
  }
  if (!result.converged) {
    // The loop exited after a RecomputeCentroids, so assignments/sse are
    // stale; re-assign against the final centroids. On a converged exit
    // the assignment is already consistent and re-running it would just
    // repeat an identical full-data pass.
    assign_timer.Restart();
    result.sse = AssignToCentroids(data, result.centroids,
                                   result.assignments);
    assign_seconds += assign_timer.ElapsedSeconds();
    ++assign_passes;
  }

  metrics.GetCounter("kmeans/runs").Increment();
  metrics.GetCounter("kmeans/iterations").Increment(result.iterations);
  metrics.GetCounter("kmeans/assign_passes").Increment(assign_passes);
  metrics.GetHistogram("kmeans/assign_seconds").Record(assign_seconds);
  return result;
}

}  // namespace

Matrix InitializeCentroids(const Matrix& data, int32_t k, KMeansInit init,
                           Rng& rng) {
  return InitializeCentroidsImpl(data, k, init, rng);
}

Matrix InitializeCentroids(const CsrMatrix& data, int32_t k, KMeansInit init,
                           Rng& rng) {
  return InitializeCentroidsImpl(data, k, init, rng);
}

double AssignToCentroids(const Matrix& data, const Matrix& centroids,
                         std::vector<int32_t>& assignments) {
  return AssignToCentroidsImpl(data, centroids, assignments);
}

double AssignToCentroids(const CsrMatrix& data, const Matrix& centroids,
                         std::vector<int32_t>& assignments) {
  return AssignToCentroidsImpl(data, centroids, assignments);
}

namespace internal {

void ExactRowDistances(const Matrix& data, std::span<const double> v,
                       std::span<double> out) {
  ADA_CHECK_LE(out.size(), data.rows());
  transform::simd::ExactSquaredDistancesRows(data.data(), data.cols(), v, out);
}

void ExactRowDistances(const CsrMatrix& data, std::span<const double> v,
                       std::span<double> out) {
  ADA_CHECK_LE(out.size(), data.rows());
  const size_t dims = data.cols();
  // Densified +0.0 cells give (0.0 - v[d])^2 == v[d]^2 bit for bit, the
  // term SparseSquaredDistance folds for an absent entry. Only the
  // tile's nonzeros are written, and reset after use.
  std::vector<double> tile(simd::kRowTile * dims, 0.0);
  for (size_t begin = 0; begin < out.size(); begin += simd::kRowTile) {
    const size_t count = std::min(simd::kRowTile, out.size() - begin);
    for (size_t p = 0; p < count; ++p) {
      for (const transform::SparseEntry& entry : data.Row(begin + p)) {
        ADA_CHECK_LT(entry.column, dims);
        tile[p * dims + entry.column] = entry.value;
      }
    }
    simd::ExactSquaredDistancesRows(tile, dims, v, out.subspan(begin, count));
    for (size_t p = 0; p < count; ++p) {
      for (const transform::SparseEntry& entry : data.Row(begin + p)) {
        tile[p * dims + entry.column] = 0.0;
      }
    }
  }
}

void AccumulateRows(const Matrix& data,
                    const std::vector<int32_t>& assignments, size_t begin,
                    size_t end, CentroidAccumulator& acc) {
  AccumulateRowsImpl(data, assignments, begin, end, acc);
}

void AccumulateRows(const CsrMatrix& data,
                    const std::vector<int32_t>& assignments, size_t begin,
                    size_t end, CentroidAccumulator& acc) {
  AccumulateRowsImpl(data, assignments, begin, end, acc);
}

void MergeAccumulator(const CentroidAccumulator& part,
                      CentroidAccumulator& total) {
  const size_t k = total.sums.rows();
  const size_t dims = total.sums.cols();
  for (size_t c = 0; c < k; ++c) {
    total.counts[c] += part.counts[c];
    std::span<const double> src = part.sums.Row(c);
    std::span<double> dst = total.sums.Row(c);
    for (size_t d = 0; d < dims; ++d) dst[d] += src[d];
  }
}

void FinalizeCentroids(const Matrix& data,
                       const std::vector<int32_t>& assignments,
                       CentroidAccumulator& acc, Matrix& centroids) {
  FinalizeCentroidsImpl(data, assignments, acc, centroids);
}

void FinalizeCentroids(const CsrMatrix& data,
                       const std::vector<int32_t>& assignments,
                       CentroidAccumulator& acc, Matrix& centroids) {
  FinalizeCentroidsImpl(data, assignments, acc, centroids);
}

common::Status ValidateKMeansArgs(const Matrix& data,
                                  const KMeansOptions& options) {
  return ValidateKMeansArgsImpl(data, options);
}

common::Status ValidateKMeansArgs(const CsrMatrix& data,
                                  const KMeansOptions& options) {
  return ValidateKMeansArgsImpl(data, options);
}

Matrix StartingCentroids(const Matrix& data, const KMeansOptions& options,
                         Rng& rng) {
  return StartingCentroidsImpl(data, options, rng);
}

Matrix StartingCentroids(const CsrMatrix& data, const KMeansOptions& options,
                         Rng& rng) {
  return StartingCentroidsImpl(data, options, rng);
}

namespace {

bool ContainsNaN(const Matrix& data) {
  for (size_t r = 0; r < data.rows(); ++r) {
    for (double v : data.Row(r)) {
      if (std::isnan(v)) return true;
    }
  }
  return false;
}

}  // namespace

double MeasuredDensity(const Matrix& data) {
  const size_t cells = data.rows() * data.cols();
  if (cells == 0) return 1.0;
  size_t nonzeros = 0;
  for (size_t r = 0; r < data.rows(); ++r) {
    for (double v : data.Row(r)) {
      if (std::isnan(v)) return 1.0;  // NaN data stays on the dense path.
      if (v != 0.0) ++nonzeros;
    }
  }
  return static_cast<double>(nonzeros) / static_cast<double>(cells);
}

bool ShouldUseSparse(const Matrix& data, const KMeansOptions& options) {
  switch (options.representation) {
    case KMeansRepresentation::kDense:
      return false;
    case KMeansRepresentation::kSparse:
      // Honor the request unless conversion would trip FromDense's NaN
      // check; garbage inputs keep the legacy dense behavior.
      return !ContainsNaN(data);
    case KMeansRepresentation::kAuto:
      break;
  }
  // The naive engine's exact distance is O(dims) either way (the
  // zero-run terms must still fold in order), so auto-selection only
  // pays off where the fused O(nnz) screen runs: the accelerated engine.
  if (options.engine != KMeansEngine::kAccelerated) return false;
  if (options.k < kMinSparseClusters) return false;
  if (data.cols() < kMinSparseDims) return false;
  return MeasuredDensity(data) <= options.sparse_density_threshold;
}

}  // namespace internal

void RecomputeCentroids(const Matrix& data,
                        const std::vector<int32_t>& assignments,
                        Matrix& centroids) {
  RecomputeCentroidsImpl(data, assignments, centroids);
}

void RecomputeCentroids(const CsrMatrix& data,
                        const std::vector<int32_t>& assignments,
                        Matrix& centroids) {
  RecomputeCentroidsImpl(data, assignments, centroids);
}

std::vector<int64_t> ClusterSizes(const std::vector<int32_t>& assignments,
                                  int32_t k) {
  ADA_CHECK_GE(k, 1);
  std::vector<int64_t> sizes(static_cast<size_t>(k), 0);
  for (int32_t a : assignments) {
    ADA_CHECK_GE(a, 0);
    ADA_CHECK_LT(a, k);
    ++sizes[static_cast<size_t>(a)];
  }
  return sizes;
}

Matrix AdaptCentroids(const Matrix& data, const Clustering& source,
                      int32_t target_k) {
  ADA_CHECK_GE(target_k, 1);
  ADA_CHECK_LE(static_cast<size_t>(target_k), data.rows());
  ADA_CHECK_EQ(source.centroids.cols(), data.cols());
  ADA_CHECK_EQ(source.assignments.size(), data.rows());
  const size_t k_prev = source.centroids.rows();
  const size_t k = static_cast<size_t>(target_k);
  const size_t dims = data.cols();
  if (k == k_prev) return source.centroids;

  Matrix out(k, dims);
  if (k < k_prev) {
    // Keep the centroids of the k largest clusters (relative order
    // preserved); the smallest clusters are the likeliest artifacts of
    // over-segmentation.
    std::vector<int64_t> sizes = ClusterSizes(source.assignments, source.k);
    std::vector<size_t> order(k_prev);
    for (size_t c = 0; c < k_prev; ++c) order[c] = c;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return sizes[a] > sizes[b];
    });
    order.resize(k);
    std::sort(order.begin(), order.end());
    for (size_t c = 0; c < k; ++c) {
      std::span<const double> src = source.centroids.Row(order[c]);
      std::span<double> dst = out.Row(c);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    return out;
  }

  // Growing: keep every centroid and add data points by farthest-point
  // selection — deterministic (no rng), so warm-started runs stay
  // reproducible.
  for (size_t c = 0; c < k_prev; ++c) {
    std::span<const double> src = source.centroids.Row(c);
    std::span<double> dst = out.Row(c);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  // Each point's distance to its nearest kept centroid, folded in
  // centroid order.
  std::vector<double> min_distance(data.rows(),
                                   std::numeric_limits<double>::max());
  std::vector<double> distance(data.rows());
  const auto fold_nearest = [&](std::span<const double> centroid) {
    internal::ExactRowDistances(data, centroid, distance);
    for (size_t i = 0; i < data.rows(); ++i) {
      min_distance[i] = std::min(min_distance[i], distance[i]);
    }
  };
  for (size_t c = 0; c < k_prev; ++c) fold_nearest(out.Row(c));
  for (size_t c = k_prev; c < k; ++c) {
    size_t farthest = 0;
    double worst = -1.0;
    for (size_t i = 0; i < data.rows(); ++i) {
      if (min_distance[i] > worst) {
        worst = min_distance[i];
        farthest = i;
      }
    }
    std::span<const double> src = data.Row(farthest);
    std::span<double> dst = out.Row(c);
    std::copy(src.begin(), src.end(), dst.begin());
    fold_nearest(dst);
  }
  return out;
}

StatusOr<Clustering> RunKMeans(const Matrix& data,
                               const KMeansOptions& options) {
  common::Status valid = internal::ValidateKMeansArgs(data, options);
  if (!valid.ok()) return valid;
  if (internal::ShouldUseSparse(data, options)) {
    // Convert once up front; every pass of either engine then runs the
    // O(nnz) kernels. Results are identical to the dense path.
    CsrMatrix sparse = CsrMatrix::FromDense(data);
    KMeansOptions pinned = options;
    pinned.representation = KMeansRepresentation::kSparse;
    return RunKMeans(sparse, pinned);
  }
  if (options.engine == KMeansEngine::kAccelerated) {
    return RunAcceleratedKMeans(data, options);
  }
  return RunNaiveKMeansImpl(data, options);
}

StatusOr<Clustering> RunKMeans(const CsrMatrix& data,
                               const KMeansOptions& options) {
  common::Status valid = internal::ValidateKMeansArgs(data, options);
  if (!valid.ok()) return valid;
  if (options.representation == KMeansRepresentation::kDense) {
    KMeansOptions pinned = options;
    pinned.representation = KMeansRepresentation::kDense;
    return RunKMeans(data.ToDense(), pinned);
  }
  common::MetricsRegistry::Default()
      .GetCounter("kmeans/sparse_runs")
      .Increment();
  if (options.engine == KMeansEngine::kAccelerated) {
    return RunAcceleratedKMeans(data, options);
  }
  return RunNaiveKMeansImpl(data, options);
}

}  // namespace cluster
}  // namespace adahealth
