#include "cluster/sweep.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "transform/sparse_matrix.h"

namespace adahealth {
namespace cluster {

using common::StatusOr;
using transform::Matrix;

std::vector<SweepResult> SweepKs(const Matrix& data,
                                 std::span<const int32_t> ks,
                                 const SweepOptions& options) {
  if (ks.empty()) return {};
  const int32_t max_k = static_cast<int32_t>(std::min<size_t>(
      data.rows(), std::numeric_limits<int32_t>::max()));
  auto run_k = [max_k](int32_t k) { return std::min(k, max_k); };
  auto k_seed = [&options](int32_t k) {
    return options.seed_base + static_cast<uint64_t>(k) * options.k_stride;
  };

  // Decide the representation once, probed at the largest K: one CSR
  // conversion is amortized over every run of the sweep, so the
  // small-k gate inside ShouldUseSparse (which protects single runs)
  // should not veto it. Every run then pins the decided representation.
  KMeansOptions base = options.kmeans;
  base.initial_centroids = Matrix();
  base.k = 0;
  for (int32_t k : ks) base.k = std::max(base.k, run_k(k));
  const bool use_sparse = internal::ShouldUseSparse(data, base);
  transform::CsrMatrix sparse;
  if (use_sparse) {
    sparse = transform::CsrMatrix::FromDense(data);
    common::MetricsRegistry::Default()
        .GetCounter("cluster/sparse_sweeps")
        .Increment();
  }
  base.representation = use_sparse ? KMeansRepresentation::kSparse
                                   : KMeansRepresentation::kDense;
  auto run = [&](const KMeansOptions& run_options, double& seconds) {
    common::WallTimer timer;
    StatusOr<Clustering> clustering = use_sparse
                                          ? RunKMeans(sparse, run_options)
                                          : RunKMeans(data, run_options);
    seconds += timer.ElapsedSeconds();
    return clustering;
  };

  // Every independent run at once: (K, restart) in K-major order.
  const size_t restarts = static_cast<size_t>(std::max(options.restarts, 0));
  std::vector<StatusOr<Clustering>> cold(
      ks.size() * restarts, common::InternalError("not run"));
  std::vector<double> cold_seconds(cold.size(), 0.0);
  common::ParallelFor(
      common::ThreadPool::Shared(), 0, cold.size(),
      [&](size_t i) {
        common::Status injected = ADA_FAILPOINT("cluster.sweep.run");
        if (!injected.ok()) {
          cold[i] = std::move(injected);
          return;
        }
        const int32_t k = ks[i / restarts];
        KMeansOptions run_options = base;
        run_options.k = run_k(k);
        run_options.seed = k_seed(k) + static_cast<uint64_t>(i % restarts) *
                                           options.restart_stride;
        cold[i] = run(run_options, cold_seconds[i]);
      },
      /*max_chunk=*/1);

  // The warm chain and the reduction, serially in K order.
  std::vector<SweepResult> results(ks.size());
  const Clustering* warm_source = options.warm_source;
  for (size_t ki = 0; ki < ks.size(); ++ki) {
    SweepResult& result = results[ki];
    bool failed = false;
    // A K below 1 has no warm run; its cold runs report RunKMeans's
    // INVALID_ARGUMENT.
    if (warm_source != nullptr && ks[ki] >= 1) {
      KMeansOptions run_options = base;
      run_options.k = run_k(ks[ki]);
      run_options.seed = k_seed(ks[ki]);
      run_options.initial_centroids =
          AdaptCentroids(data, *warm_source, run_options.k);
      result.best = run(run_options, result.kmeans_seconds);
      result.warm_started = result.best.ok();
      failed = !result.best.ok();
    }
    for (size_t r = 0; r < restarts; ++r) {
      const size_t i = ki * restarts + r;
      result.kmeans_seconds += cold_seconds[i];
      if (failed) continue;
      if (!cold[i].ok()) {
        result.best = cold[i].status();
        failed = true;
      } else if (!result.best.ok() || cold[i]->sse < result.best->sse) {
        result.best = std::move(cold[i]);
      }
    }
    if (result.best.ok()) warm_source = &*result.best;
  }
  return results;
}

}  // namespace cluster
}  // namespace adahealth
