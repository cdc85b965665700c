// K-means clustering (Lloyd's algorithm) with random and k-means++
// initialization. The kd-tree accelerated variant cited by the paper
// (Kanungo et al. [3]) lives in cluster/filtering_kmeans.h and produces
// identical results faster.
#ifndef ADAHEALTH_CLUSTER_KMEANS_H_
#define ADAHEALTH_CLUSTER_KMEANS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "transform/matrix.h"
#include "transform/sparse_matrix.h"

namespace adahealth {
namespace cluster {

/// Centroid initialization strategy.
enum class KMeansInit {
  /// k distinct data points chosen uniformly at random.
  kRandom,
  /// k-means++ seeding (D^2 weighting).
  kKMeansPlusPlus,
};

/// Assignment-loop implementation. Both engines produce bit-identical
/// assignments, centroids, SSE and iteration counts for the same
/// options; they differ only in speed.
enum class KMeansEngine {
  /// Reference Lloyd: full O(n·k·d) distance scan every pass.
  kNaive,
  /// Hamerly bound-pruned Lloyd with fused distance kernels and
  /// chunked parallel passes on ThreadPool::Shared()
  /// (cluster/kmeans_accel.h). Exact, not approximate.
  kAccelerated,
};

/// Data-layout selection for the assignment/update kernels. Whatever
/// the representation, results are identical: the sparse kernels
/// reproduce the dense scalar arithmetic bit for bit (assignments,
/// SSE, iteration counts; centroids may differ only in the sign of
/// zero when the input contains negative zeros, which compare equal).
enum class KMeansRepresentation {
  /// Measure the nnz density and pick: accelerated runs on data at or
  /// below KMeansOptions::sparse_density_threshold (and at least
  /// kMinSparseDims columns) go CSR, everything else stays dense.
  kAuto,
  /// Always run the dense kernels.
  kDense,
  /// Always run the CSR kernels (dense inputs are converted once).
  kSparse,
};

struct KMeansOptions {
  /// Number of clusters; 1 <= k <= number of points.
  int32_t k = 8;
  KMeansInit init = KMeansInit::kKMeansPlusPlus;
  /// Hard iteration cap.
  int32_t max_iterations = 100;
  /// Converged when no assignment changes in an iteration.
  uint64_t seed = 1;
  KMeansEngine engine = KMeansEngine::kAccelerated;
  KMeansRepresentation representation = KMeansRepresentation::kAuto;
  /// kAuto density cutoff for switching to the CSR kernels.
  double sparse_density_threshold =
      transform::kDefaultSparseDensityThreshold;
  /// Warm start: when non-empty (must be k x data.cols()), used as the
  /// initial centroids instead of running `init`. The optimizer seeds
  /// restarts and adjacent candidate Ks from earlier solutions this
  /// way. Copied by value so the options stay self-contained. The
  /// explicit {} is a default member initializer so designated-init
  /// call sites (`KMeansOptions{.k = 3}`) stay clean under
  /// -Wmissing-field-initializers.
  transform::Matrix initial_centroids{};
};

/// Result of a clustering run.
struct Clustering {
  int32_t k = 0;
  /// Cluster index per data row, in [0, k).
  std::vector<int32_t> assignments;
  /// k x dims centroid matrix.
  transform::Matrix centroids;
  /// Sum of squared errors (total squared distance to closest centroid).
  double sse = 0.0;
  /// Lloyd iterations executed.
  int32_t iterations = 0;
  /// True if the run converged before max_iterations.
  bool converged = false;
};

/// Runs Lloyd's K-means on the rows of `data`.
/// Fails if k is out of range or data is empty. Deterministic in
/// (data, options).
[[nodiscard]] common::StatusOr<Clustering> RunKMeans(const transform::Matrix& data,
                                       const KMeansOptions& options);

/// Same contract on a CSR matrix, without ever materializing the dense
/// data. Results are identical to running on data.ToDense().
[[nodiscard]] common::StatusOr<Clustering> RunKMeans(
    const transform::CsrMatrix& data, const KMeansOptions& options);

// --- Building blocks shared with the accelerated variants ---------------

/// Chooses initial centroids from the rows of `data`. The k-means++
/// D^2 update computes every point's distance to the newest centroid
/// many points at a time (internal::ExactRowDistances): each distance
/// is still the exact ascending-dimension SquaredDistance fold, bit for
/// bit, so the seeds are the one-point-at-a-time loop's seeds.
transform::Matrix InitializeCentroids(const transform::Matrix& data,
                                      int32_t k, KMeansInit init,
                                      common::Rng& rng);
transform::Matrix InitializeCentroids(const transform::CsrMatrix& data,
                                      int32_t k, KMeansInit init,
                                      common::Rng& rng);

/// Assigns each row to its closest centroid; returns the SSE.
/// `assignments` is resized to data.rows(). The CSR overload computes
/// the same distances bit for bit.
double AssignToCentroids(const transform::Matrix& data,
                         const transform::Matrix& centroids,
                         std::vector<int32_t>& assignments);
double AssignToCentroids(const transform::CsrMatrix& data,
                         const transform::Matrix& centroids,
                         std::vector<int32_t>& assignments);

/// Recomputes centroids as assignment means. Empty clusters are
/// re-seeded with the point farthest from its current centroid, which
/// guarantees k non-empty clusters when data.rows() >= k.
void RecomputeCentroids(const transform::Matrix& data,
                        const std::vector<int32_t>& assignments,
                        transform::Matrix& centroids);
void RecomputeCentroids(const transform::CsrMatrix& data,
                        const std::vector<int32_t>& assignments,
                        transform::Matrix& centroids);

/// Sizes of each cluster given `assignments` (values < k).
std::vector<int64_t> ClusterSizes(const std::vector<int32_t>& assignments,
                                  int32_t k);

/// Warm-start helper: adapts a solved clustering of `data` into
/// starting centroids for a run with `target_k` clusters (for
/// KMeansOptions::initial_centroids). Equal K returns the centroids
/// unchanged; a smaller K keeps the centroids of the largest clusters;
/// a larger K adds data points by deterministic farthest-point
/// selection. `source.assignments` must be aligned with `data`. Its
/// nearest-kept and farthest-point updates use the same exact
/// many-points-to-one-centroid distances as InitializeCentroids.
transform::Matrix AdaptCentroids(const transform::Matrix& data,
                                 const Clustering& source, int32_t target_k);

namespace internal {

/// Row-chunk width of the deterministic centroid reduction. Both
/// engines accumulate per-chunk partial sums on this fixed grid and
/// merge them in chunk order, so the serial (naive) and parallel
/// (accelerated) reductions produce bit-identical centroids.
inline constexpr size_t kCentroidChunkRows = 2048;

/// kAuto never picks CSR below this many columns: with few dimensions
/// the dense row fits in a couple of cache lines and the sparse
/// branchiness costs more than the skipped zeros save.
inline constexpr size_t kMinSparseDims = 32;

/// kAuto never picks CSR below this many clusters either: the density
/// scan plus CSR conversion cost about two dense assignment passes of
/// fixed O(rows x cols) work, and the per-pass saving scales with k —
/// a small-k run that converges in a handful of iterations never
/// earns the conversion back. Callers that amortize one conversion
/// over many runs (the optimizer sweep) pin kSparse explicitly and
/// bypass this gate.
inline constexpr int32_t kMinSparseClusters = 4;

// Representation-generic row primitives. Each pair computes
// bit-identical results; the engine templates call them unqualified so
// one source instantiates both data layouts.

/// Exact squared distance from row `i` of `data` to the dense vector
/// `v` — the naive scan's arithmetic on either representation.
inline double ExactRowDistance(const transform::Matrix& data, size_t i,
                               std::span<const double> v) {
  return transform::SquaredDistance(data.Row(i), v);
}
inline double ExactRowDistance(const transform::CsrMatrix& data, size_t i,
                               std::span<const double> v) {
  return transform::SparseSquaredDistance(data.Row(i), v);
}

/// Exact squared distances from rows [0, out.size()) of `data` to the
/// dense vector `v`, each bit-identical to ExactRowDistance, computed
/// simd::kRowTile points at a time (simd::ExactSquaredDistancesRows).
/// Dense rows are read in place; CSR rows are densified one tile at a
/// time into a kRowTile x dims buffer, never the whole matrix.
void ExactRowDistances(const transform::Matrix& data,
                       std::span<const double> v, std::span<double> out);
void ExactRowDistances(const transform::CsrMatrix& data,
                       std::span<const double> v, std::span<double> out);

/// Copies row `i` of `data` into `dst` (densifying a CSR row).
inline void CopyRowInto(const transform::Matrix& data, size_t i,
                        std::span<double> dst) {
  std::span<const double> src = data.Row(i);
  std::copy(src.begin(), src.end(), dst.begin());
}
inline void CopyRowInto(const transform::CsrMatrix& data, size_t i,
                        std::span<double> dst) {
  transform::DensifyRow(data.Row(i), dst);
}

/// Measured nnz density of `data`; returns 1.0 (never sparse-eligible)
/// when any cell is NaN, so garbage inputs keep the legacy dense
/// behavior instead of tripping the CSR builder's validation.
double MeasuredDensity(const transform::Matrix& data);

/// True when `options` (representation + density threshold + engine)
/// selects the CSR kernels for this dense input.
bool ShouldUseSparse(const transform::Matrix& data,
                     const KMeansOptions& options);

/// Per-cluster running sums and counts of one reduction chunk.
struct CentroidAccumulator {
  transform::Matrix sums;       // k x dims.
  std::vector<int64_t> counts;  // k.

  CentroidAccumulator() = default;
  CentroidAccumulator(size_t k, size_t dims)
      : sums(k, dims, 0.0), counts(k, 0) {}
};

/// Accumulates rows [begin, end) of `data` into `acc` in row order.
/// The CSR overload gathers only the non-zeros (bit-identical sums).
void AccumulateRows(const transform::Matrix& data,
                    const std::vector<int32_t>& assignments, size_t begin,
                    size_t end, CentroidAccumulator& acc);
void AccumulateRows(const transform::CsrMatrix& data,
                    const std::vector<int32_t>& assignments, size_t begin,
                    size_t end, CentroidAccumulator& acc);

/// Adds `part` into `total` (cluster-row order).
void MergeAccumulator(const CentroidAccumulator& part,
                      CentroidAccumulator& total);

/// Turns accumulated sums/counts into centroids: divides by counts and
/// re-seeds empty clusters exactly as RecomputeCentroids documents.
/// Mutates `acc.counts` while re-seeding.
void FinalizeCentroids(const transform::Matrix& data,
                       const std::vector<int32_t>& assignments,
                       CentroidAccumulator& acc,
                       transform::Matrix& centroids);
void FinalizeCentroids(const transform::CsrMatrix& data,
                       const std::vector<int32_t>& assignments,
                       CentroidAccumulator& acc,
                       transform::Matrix& centroids);

/// Shared argument validation of RunKMeans and RunAcceleratedKMeans.
[[nodiscard]] common::Status ValidateKMeansArgs(
    const transform::Matrix& data, const KMeansOptions& options);
[[nodiscard]] common::Status ValidateKMeansArgs(
    const transform::CsrMatrix& data, const KMeansOptions& options);

/// Chooses the starting centroids per options (initial_centroids when
/// provided, otherwise `init` via `rng`).
transform::Matrix StartingCentroids(const transform::Matrix& data,
                                    const KMeansOptions& options,
                                    common::Rng& rng);
transform::Matrix StartingCentroids(const transform::CsrMatrix& data,
                                    const KMeansOptions& options,
                                    common::Rng& rng);

}  // namespace internal

}  // namespace cluster
}  // namespace adahealth

#endif  // ADAHEALTH_CLUSTER_KMEANS_H_
