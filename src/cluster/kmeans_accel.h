// Exact accelerated k-means engine: Hamerly-style bound-pruned Lloyd
// with SIMD distance kernels and chunked parallel passes on the shared
// thread pool.
//
// The engine is a drop-in behind the RunKMeans contract
// (KMeansOptions::engine == kAccelerated, the default): for identical
// options it produces assignments, centroids, SSE and iteration counts
// bit-identical to the naive engine. The bounds are exact, not
// approximate — every pruning decision is padded so floating-point
// rounding can only make it conservative, and every assignment that is
// actually recomputed uses the same arithmetic (same formula, same
// scan order, same tie-break) as the naive scan.
#ifndef ADAHEALTH_CLUSTER_KMEANS_ACCEL_H_
#define ADAHEALTH_CLUSTER_KMEANS_ACCEL_H_

#include "cluster/kmeans.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "transform/matrix.h"
#include "transform/sparse_matrix.h"

namespace adahealth {
namespace cluster {

/// Runs the accelerated engine directly (RunKMeans dispatches here when
/// options.engine == kAccelerated). Same contract and error conditions
/// as RunKMeans; `options.engine` itself is ignored.
///
/// The dense overload full-scans a point with the bit-exact lane
/// kernel (transform::simd::ExactSquaredDistancesLanes: every centroid
/// distance at once, each identical to SquaredDistance). The CSR
/// overload runs the sparse kernels — an O(nnz) fused screen against a
/// transposed centroid block plus exact scalar rechecks — and produces
/// results bit-identical to the dense overload on data.ToDense(). Both
/// tighten a Hamerly upper bound with one padded fused distance (an
/// O(dims) SIMD dot dense, O(nnz) sparse), which is never below the
/// exact distance. Runs with fewer than kMinClustersForBounds clusters
/// skip the Hamerly bookkeeping entirely (pure overhead at small k)
/// and full-scan every point instead.
///
/// Instrumentation (process-wide registry):
///   kmeans/skipped_distance_checks  exact point-centroid distance
///                                   evaluations avoided by the bound
///                                   tests (k per fully skipped point,
///                                   k-1 per tighten-then-skip),
///   kmeans/bound_recomputes         upper-bound tightenings (one fused
///                                   distance each),
///   kmeans/parallel_chunks          chunks executed on the shared pool,
///   kmeans/smallk_unbounded_runs    runs that skipped the Hamerly
///                                   bookkeeping because k was small.
[[nodiscard]] common::StatusOr<Clustering> RunAcceleratedKMeans(
    const transform::Matrix& data, const KMeansOptions& options);
[[nodiscard]] common::StatusOr<Clustering> RunAcceleratedKMeans(
    const transform::CsrMatrix& data, const KMeansOptions& options);

namespace internal {

/// Same engine on an explicit pool instead of ThreadPool::Shared().
/// Lets tests exercise the parallel code path (and its bit-identity
/// with the serial one) on machines with few cores.
[[nodiscard]] common::StatusOr<Clustering> RunAcceleratedKMeansOnPool(
    const transform::Matrix& data, const KMeansOptions& options,
    common::ThreadPool& pool);
[[nodiscard]] common::StatusOr<Clustering> RunAcceleratedKMeansOnPool(
    const transform::CsrMatrix& data, const KMeansOptions& options,
    common::ThreadPool& pool);

}  // namespace internal

}  // namespace cluster
}  // namespace adahealth

#endif  // ADAHEALTH_CLUSTER_KMEANS_ACCEL_H_
