// Ablation A1: clustering engines on the paper-scale cohort VSM.
//
// Compares the naive Lloyd engine against the accelerated
// (Hamerly-pruned, fused-kernel, pooled) engine across a K sweep,
// verifying on every run that the two produce bit-identical
// assignments and SSE — a divergence is a hard failure (non-zero
// exit), which is what the CI bench-smoke job keys on. A second table
// ablates the accelerated engine's representation (sparse CSR vs
// dense) against its instruction set (runtime-dispatched AVX2/FMA vs
// pinned scalar), since the cohort VSM is the sparse regime the CSR
// path targets, on a thread axis of 1, 2 and hardware-concurrency pool
// threads (the representation choice of kAuto is a speed choice, and
// which side wins can depend on how many cores share a pass). Also keeps the original A1 reference points (kd-tree
// filtering K-means, bisecting K-means, init strategies) for context.
//
// Writes BENCH_kmeans.json into the current working directory; run it
// from the repo root to land the file there. Set ADA_BENCH_SMOKE=1 for
// the reduced CI configuration.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/bisecting.h"
#include "cluster/filtering_kmeans.h"
#include "cluster/kmeans.h"
#include "cluster/kmeans_accel.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "dataset/synthetic_cohort.h"
#include "transform/simd_kernels.h"
#include "transform/sparse_matrix.h"
#include "transform/vsm.h"

namespace {

using namespace adahealth;

bool SmokeMode() {
  const char* env = std::getenv("ADA_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

transform::Matrix CohortVsm(bool smoke) {
  auto cohort = dataset::SyntheticCohortGenerator(
                    smoke ? dataset::TestScaleConfig()
                          : dataset::PaperScaleConfig())
                    .Generate();
  return transform::BuildVsm(cohort->log);
}

common::Json MachineInfo() {
  common::Json::Object machine;
  machine["hardware_threads"] = static_cast<int64_t>(
      common::ThreadPool::Shared().num_threads());
  machine["pointer_bits"] = static_cast<int64_t>(sizeof(void*) * 8);
#ifdef __VERSION__
  machine["compiler"] = std::string("gcc/clang ") + __VERSION__;
#endif
#ifdef NDEBUG
  machine["build"] = "release";
#else
  machine["build"] = "debug";
#endif
  return common::Json(std::move(machine));
}

struct EngineRun {
  double millis = 0.0;
  cluster::Clustering clustering;
};

EngineRun Finish(common::StatusOr<cluster::Clustering> clustering,
                 double millis, int32_t k) {
  if (!clustering.ok()) {
    std::printf("k-means failed (k=%d): %s\n", k,
                clustering.status().ToString().c_str());
    std::exit(1);
  }
  EngineRun run;
  run.millis = millis;
  run.clustering = std::move(clustering).value();
  return run;
}

EngineRun TimeEngine(const transform::Matrix& vsm, int32_t k, uint64_t seed,
                     cluster::KMeansEngine engine) {
  cluster::KMeansOptions options;
  options.k = k;
  options.seed = seed;
  options.engine = engine;
  common::WallTimer timer;
  auto clustering = cluster::RunKMeans(vsm, options);
  return Finish(std::move(clustering), timer.ElapsedSeconds() * 1e3, k);
}

/// One accelerated run on `pool` with the representation pinned
/// (sparse runs on the pre-built CSR form, so conversion cost is not in
/// the timing) and the SIMD dispatch pinned to scalar when `scalar`
/// asks for it.
EngineRun TimeVariant(const transform::Matrix& vsm,
                      const transform::CsrMatrix& csr, int32_t k,
                      uint64_t seed, bool sparse, bool scalar,
                      common::ThreadPool& pool) {
  cluster::KMeansOptions options;
  options.k = k;
  options.seed = seed;
  if (scalar) {
    transform::simd::internal::SetIsaForTesting(
        transform::simd::IsaLevel::kScalar);
  }
  common::WallTimer timer;
  common::StatusOr<cluster::Clustering> clustering =
      sparse ? cluster::internal::RunAcceleratedKMeansOnPool(csr, options,
                                                             pool)
             : cluster::internal::RunAcceleratedKMeansOnPool(vsm, options,
                                                             pool);
  const double millis = timer.ElapsedSeconds() * 1e3;
  if (scalar) transform::simd::internal::ResetIsaForTesting();
  return Finish(std::move(clustering), millis, k);
}

bool Identical(const cluster::Clustering& a, const cluster::Clustering& b) {
  return a.assignments == b.assignments && a.sse == b.sse &&
         a.iterations == b.iterations;
}

int Run() {
  const bool smoke = SmokeMode();
  const transform::Matrix vsm = CohortVsm(smoke);
  const transform::CsrMatrix csr = transform::CsrMatrix::FromDense(vsm);
  const double density = csr.Density();
  const char* isa = transform::simd::IsaName(transform::simd::ActiveIsa());
  const std::vector<int32_t> ks =
      smoke ? std::vector<int32_t>{4, 8}
            : std::vector<int32_t>{2, 3, 4, 5, 6, 7, 8, 9, 10};
  const std::vector<uint64_t> seeds =
      smoke ? std::vector<uint64_t>{20160516}
            : std::vector<uint64_t>{20160516, 7, 42};

  std::printf(
      "=== Ablation A1: k-means engines (%zu x %zu VSM, %.2f%% nnz, "
      "isa=%s%s) ===\n",
      vsm.rows(), vsm.cols(), density * 100.0, isa,
      smoke ? ", smoke config" : "");
  std::printf("%-4s %-12s %-11s %-11s %-8s %-6s %-14s %s\n", "K", "seed",
              "naive(ms)", "accel(ms)", "speedup", "iters", "skipped",
              "identical");

  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  common::Json::Array results;
  common::Json::Array ablation;
  bool all_identical = true;
  double log_speedup_sum = 0.0;
  double min_speedup = 0.0;
  size_t runs = 0;
  double log_ablation_sum = 0.0;
  size_t ablation_runs = 0;
  // Thread axis: 1, 2 and hardware concurrency (deduplicated, so a
  // 2-thread host runs {1, 2}).
  const size_t hardware_threads = common::ThreadPool::Shared().num_threads();
  std::vector<size_t> thread_axis = {1};
  for (size_t threads : {size_t{2}, hardware_threads}) {
    if (threads > thread_axis.back()) thread_axis.push_back(threads);
  }
  std::vector<std::unique_ptr<common::ThreadPool>> pools;
  for (size_t threads : thread_axis) {
    pools.push_back(std::make_unique<common::ThreadPool>(threads));
  }
  std::vector<double> log_sparse_vs_dense(thread_axis.size(), 0.0);
  std::vector<size_t> sparse_vs_dense_runs(thread_axis.size(), 0);
  for (int32_t k : ks) {
    for (uint64_t seed : seeds) {
      EngineRun naive =
          TimeEngine(vsm, k, seed, cluster::KMeansEngine::kNaive);
      metrics.Reset();
      EngineRun accel =
          TimeEngine(vsm, k, seed, cluster::KMeansEngine::kAccelerated);
      const int64_t skipped =
          metrics.GetCounter("kmeans/skipped_distance_checks").value();
      const int64_t recomputes =
          metrics.GetCounter("kmeans/bound_recomputes").value();
      const int64_t chunks =
          metrics.GetCounter("kmeans/parallel_chunks").value();
      const bool went_sparse =
          metrics.GetCounter("kmeans/sparse_runs").value() > 0;

      const bool identical = Identical(naive.clustering, accel.clustering);
      all_identical = all_identical && identical;
      const double speedup =
          accel.millis > 0.0 ? naive.millis / accel.millis : 0.0;
      if (speedup > 0.0) {
        log_speedup_sum += std::log(speedup);
        min_speedup = runs == 0 ? speedup : std::min(min_speedup, speedup);
        ++runs;
      }
      std::printf("%-4d %-12llu %-11.1f %-11.1f %-8.2f %-6d %-14lld %s\n",
                  k, static_cast<unsigned long long>(seed), naive.millis,
                  accel.millis, speedup, accel.clustering.iterations,
                  static_cast<long long>(skipped),
                  identical ? "yes" : "NO  <-- DIVERGENCE");

      common::Json::Object row;
      row["k"] = static_cast<int64_t>(k);
      row["seed"] = static_cast<int64_t>(seed);
      row["naive_ms"] = naive.millis;
      row["accel_ms"] = accel.millis;
      row["speedup"] = speedup;
      row["sse"] = accel.clustering.sse;
      row["iterations"] =
          static_cast<int64_t>(accel.clustering.iterations);
      row["identical"] = identical;
      row["representation"] = went_sparse ? "sparse" : "dense";
      row["skipped_distance_checks"] = skipped;
      row["bound_recomputes"] = recomputes;
      row["parallel_chunks"] = chunks;
      results.push_back(common::Json(std::move(row)));

      // Representation x ISA x threads ablation of the accelerated
      // engine (first seed only): sparse CSR vs dense, dispatched SIMD
      // vs pinned scalar, on pools of 1, 2 and hardware-concurrency
      // threads. dense+scalar is the engine before the sparse/SIMD
      // work; which of dense+simd and sparse+simd wins at each thread
      // count is the evidence behind kAuto's density threshold.
      if (seed != seeds[0]) continue;
      struct Variant {
        const char* name;
        bool sparse;
        bool scalar;
      };
      const Variant variants[] = {
          {"dense+scalar", false, true},
          {"dense+simd", false, false},
          {"sparse+scalar", true, true},
          {"sparse+simd", true, false},
      };
      for (size_t t = 0; t < thread_axis.size(); ++t) {
        common::ThreadPool& pool = *pools[t];
        double dense_scalar_ms = 0.0;
        double dense_simd_ms = 0.0;
        for (const Variant& variant : variants) {
          EngineRun run = TimeVariant(vsm, csr, k, seed, variant.sparse,
                                      variant.scalar, pool);
          const bool variant_identical =
              Identical(naive.clustering, run.clustering);
          all_identical = all_identical && variant_identical;
          if (!variant.sparse) {
            (variant.scalar ? dense_scalar_ms : dense_simd_ms) = run.millis;
          }
          if (variant.sparse && !variant.scalar && run.millis > 0.0) {
            if (t + 1 == thread_axis.size() && dense_scalar_ms > 0.0) {
              log_ablation_sum += std::log(dense_scalar_ms / run.millis);
              ++ablation_runs;
            }
            if (dense_simd_ms > 0.0) {
              log_sparse_vs_dense[t] += std::log(dense_simd_ms / run.millis);
              ++sparse_vs_dense_runs[t];
            }
          }
          std::printf("     %-16s %-3zu %-11.1f %-8.2f %s\n", variant.name,
                      thread_axis[t], run.millis,
                      run.millis > 0.0 ? naive.millis / run.millis : 0.0,
                      variant_identical ? "yes" : "NO  <-- DIVERGENCE");
          common::Json::Object arow;
          arow["k"] = static_cast<int64_t>(k);
          arow["seed"] = static_cast<int64_t>(seed);
          arow["threads"] = static_cast<int64_t>(thread_axis[t]);
          arow["variant"] = std::string(variant.name);
          arow["representation"] = variant.sparse ? "sparse" : "dense";
          arow["isa"] = variant.scalar ? "scalar" : isa;
          arow["millis"] = run.millis;
          arow["speedup_vs_naive"] =
              run.millis > 0.0 ? naive.millis / run.millis : 0.0;
          arow["identical"] = variant_identical;
          ablation.push_back(common::Json(std::move(arow)));
        }
      }
    }
  }
  const double geomean_speedup =
      runs > 0 ? std::exp(log_speedup_sum / static_cast<double>(runs)) : 0.0;
  const double ablation_geomean =
      ablation_runs > 0
          ? std::exp(log_ablation_sum / static_cast<double>(ablation_runs))
          : 0.0;
  std::printf("geomean speedup: %.2fx (min %.2fx); sparse+simd vs "
              "dense+scalar accel: %.2fx\n",
              geomean_speedup, min_speedup, ablation_geomean);
  // Geomean of dense+simd time over sparse+simd time per thread count:
  // above 1 means CSR is the faster representation on this VSM.
  common::Json::Object sparse_vs_dense;
  for (size_t t = 0; t < thread_axis.size(); ++t) {
    const double ratio =
        sparse_vs_dense_runs[t] > 0
            ? std::exp(log_sparse_vs_dense[t] /
                       static_cast<double>(sparse_vs_dense_runs[t]))
            : 0.0;
    std::printf("sparse+simd vs dense+simd at %zu thread(s): %.2fx\n",
                thread_axis[t], ratio);
    sparse_vs_dense[std::to_string(thread_axis[t])] = ratio;
  }

  // Reference points: the kd-tree filtering engine and bisecting
  // K-means at the paper's K = 8 (full mode only; they are not part of
  // the identity contract).
  common::Json::Array reference;
  if (!smoke) {
    {
      cluster::KMeansOptions options;
      options.k = 8;
      options.seed = 20160516;
      common::WallTimer timer;
      auto clustering = cluster::RunFilteringKMeans(vsm, options);
      if (clustering.ok()) {
        common::Json::Object row;
        row["algorithm"] = "filtering_kmeans";
        row["millis"] = timer.ElapsedSeconds() * 1e3;
        row["sse"] = clustering->sse;
        reference.push_back(common::Json(std::move(row)));
      }
    }
    {
      cluster::BisectingOptions options;
      options.k = 8;
      options.seed = 20160516;
      common::WallTimer timer;
      auto clustering = cluster::RunBisectingKMeans(vsm, options);
      if (clustering.ok()) {
        common::Json::Object row;
        row["algorithm"] = "bisecting_kmeans";
        row["millis"] = timer.ElapsedSeconds() * 1e3;
        row["sse"] = clustering->sse;
        reference.push_back(common::Json(std::move(row)));
      }
    }
    // Initialization ablation: k-means++ vs random seeding at the
    // paper's K = 8 (iterations to convergence at equal-quality SSE).
    for (int init = 0; init < 2; ++init) {
      cluster::KMeansOptions options;
      options.k = 8;
      options.seed = 20160516;
      options.init = init == 0 ? cluster::KMeansInit::kRandom
                               : cluster::KMeansInit::kKMeansPlusPlus;
      common::WallTimer timer;
      auto clustering = cluster::RunKMeans(vsm, options);
      if (clustering.ok()) {
        common::Json::Object row;
        row["algorithm"] =
            init == 0 ? "init_random" : "init_kmeans++";
        row["millis"] = timer.ElapsedSeconds() * 1e3;
        row["sse"] = clustering->sse;
        row["iterations"] =
            static_cast<int64_t>(clustering->iterations);
        reference.push_back(common::Json(std::move(row)));
      }
    }
  }

  common::Json::Object doc;
  doc["bench"] = "kmeans_engines";
  {
    common::Json::Object config;
    config["rows"] = static_cast<int64_t>(vsm.rows());
    config["cols"] = static_cast<int64_t>(vsm.cols());
    config["nnz_density"] = density;
    config["dispatched_isa"] = std::string(isa);
    config["smoke"] = smoke;
    common::Json::Array k_array;
    for (int32_t k : ks) k_array.push_back(static_cast<int64_t>(k));
    config["ks"] = common::Json(std::move(k_array));
    common::Json::Array thread_array;
    for (size_t threads : thread_axis) {
      thread_array.push_back(static_cast<int64_t>(threads));
    }
    config["threads"] = common::Json(std::move(thread_array));
    doc["config"] = common::Json(std::move(config));
  }
  doc["machine"] = MachineInfo();
  doc["results"] = common::Json(std::move(results));
  doc["ablation"] = common::Json(std::move(ablation));
  doc["reference"] = common::Json(std::move(reference));
  {
    common::Json::Object summary;
    summary["geomean_speedup"] = geomean_speedup;
    summary["min_speedup"] = min_speedup;
    summary["ablation_geomean_sparse_simd_vs_dense_scalar"] =
        ablation_geomean;
    summary["sparse_simd_vs_dense_simd_by_threads"] =
        common::Json(std::move(sparse_vs_dense));
    summary["nnz_density"] = density;
    summary["dispatched_isa"] = std::string(isa);
    summary["all_identical"] = all_identical;
    doc["summary"] = common::Json(std::move(summary));
  }

  const std::string path = "BENCH_kmeans.json";
  std::ofstream out(path);
  out << common::Json(std::move(doc)).Pretty() << "\n";
  if (!out) {
    std::printf("failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("[kmeans_ablation] results written to %s\n", path.c_str());

  if (!all_identical) {
    std::printf("[kmeans_ablation] FAIL: accelerated engine diverged from "
                "naive Lloyd\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main() { return Run(); }
