// K sweeps: the best-SSE clustering of one matrix at each of several
// K values, the shape both adaptive partial mining (§IV-B, quality per
// K) and the optimizer's clustering phase (§IV-A, Table I) need.
//
// Per K, a sweep runs `restarts` independent seeded k-means runs plus,
// for every K that has a warm source, one run started from that
// source's centroids adapted to K (AdaptCentroids). The warm source of
// a K is the best solution of the last K before it that clustered
// without error (or the caller's initial source). The independent runs
// depend only on (K, restart), so they all fan out over
// ThreadPool::Shared() at once; only the warm chain and the reduction
// run serially, in K order. Every k-means run is bit-identical across
// thread count and representation, and the reduction order is the
// serial loop's, so the result is the serial loop's bit for bit.
#ifndef ADAHEALTH_CLUSTER_SWEEP_H_
#define ADAHEALTH_CLUSTER_SWEEP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/kmeans.h"
#include "common/status.h"
#include "transform/matrix.h"

namespace adahealth {
namespace cluster {

struct SweepOptions {
  /// Base options of every run. k, seed and initial_centroids are set
  /// per run; the representation is decided once per sweep.
  KMeansOptions kmeans;
  /// Independent seeded runs per K (>= 1).
  int32_t restarts = 1;
  /// Seeds: restart r of K runs with seed_base + K * k_stride +
  /// r * restart_stride; the warm run of K with seed_base + K * k_stride.
  uint64_t seed_base = 0;
  uint64_t k_stride = 0;
  uint64_t restart_stride = 0;
  /// Warm source of the first K (null: the first K runs cold). Its
  /// assignments must be aligned with the swept matrix's rows.
  const Clustering* warm_source = nullptr;
};

/// The outcome of one K.
struct SweepResult {
  /// The kept run: the warm run first, then the restarts in restart
  /// order, a later run replacing the kept one only with a strictly
  /// lower SSE. When a run fails, the first failure in that order.
  common::StatusOr<Clustering> best =
      common::InternalError("no restart succeeded");
  /// Busy time of this K's own runs, summed (they overlap in wall
  /// time with other Ks' runs).
  double kmeans_seconds = 0.0;
  /// True when the warm-started run ran and succeeded.
  bool warm_started = false;
};

/// Sweeps `ks` over the rows of `data`, in the order given. A K above
/// data.rows() runs with k = data.rows(); its seeds still derive from
/// the requested K. Results are parallel to `ks`. Each independent run
/// first evaluates the "cluster.sweep.run" failpoint.
[[nodiscard]] std::vector<SweepResult> SweepKs(const transform::Matrix& data,
                                               std::span<const int32_t> ks,
                                               const SweepOptions& options);

}  // namespace cluster
}  // namespace adahealth

#endif  // ADAHEALTH_CLUSTER_SWEEP_H_
