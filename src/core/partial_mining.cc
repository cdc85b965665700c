#include "core/partial_mining.h"

#include <cmath>
#include <functional>
#include <utility>

#include "cluster/quality.h"
#include "cluster/sweep.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "transform/feature_select.h"
#include "transform/sampling.h"

namespace adahealth {
namespace core {

using common::InvalidArgumentError;
using common::StatusOr;
using dataset::ExamLog;

namespace {

common::Status ValidateOptions(const PartialMiningOptions& options) {
  if (options.fractions.empty()) {
    return InvalidArgumentError("empty fraction schedule");
  }
  for (size_t i = 0; i < options.fractions.size(); ++i) {
    if (options.fractions[i] <= 0.0 || options.fractions[i] > 1.0) {
      return InvalidArgumentError("fractions must be in (0, 1]");
    }
    if (i > 0 && options.fractions[i] <= options.fractions[i - 1]) {
      return InvalidArgumentError("fractions must be strictly increasing");
    }
  }
  if (options.ks.empty()) {
    return InvalidArgumentError("at least one K is required");
  }
  for (int32_t k : options.ks) {
    if (k < 1) return InvalidArgumentError("K values must be >= 1");
  }
  if (options.tolerance < 0.0) {
    return InvalidArgumentError("tolerance must be non-negative");
  }
  if (options.restarts < 1) {
    return InvalidArgumentError("restarts must be >= 1");
  }
  return common::OkStatus();
}

/// Clusters the rows of `mining_vsm` for every K and scores each
/// result with the overall similarity computed on `evaluation_vsm`
/// (row-aligned with mining_vsm). Passing the same matrix twice scores
/// in the mining space; the exam-subset strategy evaluates on the full
/// original space so that quality across subsets is comparable.
///
/// Per K, the best-SSE of `restarts` seeded runs; stable seeds per
/// (K, restart) keep steps comparable. Every K after the first adds one
/// run warm-started from the previous K's best solution — it converges
/// in a few cheap pruned passes and can only improve the kept best.
/// cluster::SweepKs runs the seeded restarts of every K at once on the
/// shared pool and the warm chain in K order.
StatusOr<std::vector<double>> SimilarityPerK(
    const transform::Matrix& mining_vsm,
    const transform::Matrix& evaluation_vsm,
    const PartialMiningOptions& options) {
  cluster::SweepOptions sweep;
  sweep.kmeans = options.kmeans;
  sweep.restarts = options.restarts;
  sweep.seed_base = options.kmeans.seed;
  sweep.k_stride = 7919;
  sweep.restart_stride = 104729;
  std::vector<cluster::SweepResult> per_k =
      cluster::SweepKs(mining_vsm, options.ks, sweep);
  std::vector<double> similarities;
  similarities.reserve(per_k.size());
  for (const cluster::SweepResult& k_result : per_k) {
    if (!k_result.best.ok()) return k_result.best.status();
    similarities.push_back(cluster::OverallSimilarity(
        evaluation_vsm, k_result.best->assignments, k_result.best->k));
  }
  return similarities;
}

/// Measures every step of a `fractions`-long schedule with
/// `measure(s)` and returns the kept steps in schedule order. The
/// "partial_mining.step" failpoint is evaluated first, serially in
/// schedule order, so hit counting (@nth, *count) follows the
/// schedule: a failing step is dropped (it can simply never be
/// selected), except the last one — the exam-subset comparison
/// baseline and every strategy's fallback selection — whose failure
/// is returned. The remaining steps each build their own reduced log
/// and VSM, so they run as independent tasks on the shared pool. The
/// first error in schedule order is returned.
StatusOr<std::vector<PartialMiningStep>> MeasureSchedule(
    const std::vector<double>& fractions,
    const std::function<StatusOr<PartialMiningStep>(size_t)>& measure) {
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  const size_t num_steps = fractions.size();
  std::vector<common::Status> injected(num_steps);
  std::vector<size_t> kept;
  for (size_t s = 0; s < num_steps; ++s) {
    injected[s] = ADA_FAILPOINT("partial_mining.step");
    if (injected[s].ok()) {
      kept.push_back(s);
    } else if (s + 1 < num_steps) {
      metrics.GetCounter("partial_mining/steps_skipped").Increment();
      ADA_LOG(kWarning) << "partial mining: dropping step (fraction "
                        << fractions[s] << "): " << injected[s].ToString();
    }
  }
  std::vector<StatusOr<PartialMiningStep>> measured(
      kept.size(), common::InternalError("not measured"));
  common::ParallelFor(
      common::ThreadPool::Shared(), 0, kept.size(),
      [&](size_t j) {
        common::ScopedTimer step_timer(metrics, "partial_mining/step_seconds");
        measured[j] = measure(kept[j]);
      },
      /*max_chunk=*/1);
  std::vector<PartialMiningStep> steps;
  size_t j = 0;
  for (size_t s = 0; s < num_steps; ++s) {
    if (!injected[s].ok()) {
      if (s + 1 == num_steps) return injected[s];
      continue;
    }
    if (!measured[j].ok()) return measured[j].status();
    steps.push_back(std::move(measured[j++]).value());
    metrics.GetCounter("partial_mining/steps").Increment();
  }
  return steps;
}

double MeanRelativeDiff(const std::vector<double>& step,
                        const std::vector<double>& reference) {
  double total = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < step.size(); ++i) {
    if (reference[i] == 0.0) continue;
    total += std::abs(step[i] - reference[i]) / std::abs(reference[i]);
    ++counted;
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

/// Selects the smallest step within tolerance (the last step when none
/// qualifies) and records the choice.
void SelectStep(PartialMiningResult& result, double tolerance) {
  result.selected_step = result.steps.size() - 1;
  for (size_t i = 0; i < result.steps.size(); ++i) {
    if (result.steps[i].mean_relative_diff <= tolerance) {
      result.selected_step = i;
      break;
    }
  }
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.GetGauge("partial_mining/selected_fraction")
      .Set(result.steps[result.selected_step].fraction);
  metrics.GetGauge("partial_mining/stop_step")
      .Set(static_cast<double>(result.selected_step));
}

}  // namespace

StatusOr<PartialMiningResult> RunExamSubsetPartialMining(
    const ExamLog& log, const PartialMiningOptions& options) {
  common::Status valid = ValidateOptions(options);
  if (!valid.ok()) return valid;
  if (log.num_records() == 0) {
    return InvalidArgumentError("partial mining requires a non-empty log");
  }

  // The full dataset is the comparison baseline; append 1.0 if absent.
  std::vector<double> fractions = options.fractions;
  if (fractions.back() < 1.0) fractions.push_back(1.0);

  auto schedule = transform::BuildVerticalSchedule(log, fractions);
  if (!schedule.ok()) return schedule.status();

  // Every subset's clustering is scored on the full original space:
  // FilterExamTypes preserves all patients, so row i of the reduced
  // VSM is the same patient as row i of the full VSM.
  const transform::Matrix full_vsm = BuildVsm(log, options.vsm);
  std::vector<double> step_fractions;
  for (const auto& subset : schedule.value()) {
    step_fractions.push_back(subset.exam_fraction);
  }
  auto steps = MeasureSchedule(
      step_fractions, [&](size_t s) -> StatusOr<PartialMiningStep> {
        const auto& subset = (*schedule)[s];
        ExamLog reduced = log.FilterExamTypes(subset.mask);
        transform::Matrix reduced_vsm = BuildVsm(reduced, options.vsm);
        auto sims = SimilarityPerK(reduced_vsm, full_vsm, options);
        if (!sims.ok()) return sims.status();
        PartialMiningStep step;
        step.fraction = subset.exam_fraction;
        step.record_coverage = subset.record_coverage;
        step.overall_similarity = std::move(sims).value();
        return step;
      });
  if (!steps.ok()) return steps.status();

  PartialMiningResult result;
  result.ks = options.ks;
  result.steps = std::move(steps).value();
  const std::vector<double>& full = result.steps.back().overall_similarity;
  for (PartialMiningStep& step : result.steps) {
    step.mean_relative_diff = MeanRelativeDiff(step.overall_similarity, full);
  }
  SelectStep(result, options.tolerance);
  return result;
}

StatusOr<PartialMiningResult> RunPatientSubsetPartialMining(
    const ExamLog& log, const PartialMiningOptions& options) {
  common::Status valid = ValidateOptions(options);
  if (!valid.ok()) return valid;
  if (log.num_patients() == 0 || log.num_records() == 0) {
    return InvalidArgumentError("partial mining requires a non-empty log");
  }

  common::Rng rng(options.kmeans.seed + 17);
  auto schedule =
      transform::BuildHorizontalSchedule(log, options.fractions, rng);
  if (!schedule.ok()) return schedule.status();

  auto steps = MeasureSchedule(
      options.fractions, [&](size_t s) -> StatusOr<PartialMiningStep> {
        ExamLog reduced = log.FilterPatients((*schedule)[s]);
        transform::Matrix reduced_vsm = BuildVsm(reduced, options.vsm);
        auto sims = SimilarityPerK(reduced_vsm, reduced_vsm, options);
        if (!sims.ok()) return sims.status();
        PartialMiningStep step;
        step.fraction = options.fractions[s];
        step.record_coverage =
            static_cast<double>(reduced.num_records()) /
            static_cast<double>(log.num_records());
        step.overall_similarity = std::move(sims).value();
        return step;
      });
  if (!steps.ok()) return steps.status();

  PartialMiningResult result;
  result.ks = options.ks;
  result.steps = std::move(steps).value();
  for (size_t i = 0; i < result.steps.size(); ++i) {
    result.steps[i].mean_relative_diff =
        i == 0 ? 1.0
               : MeanRelativeDiff(result.steps[i].overall_similarity,
                                  result.steps[i - 1].overall_similarity);
  }
  SelectStep(result, options.tolerance);
  return result;
}

}  // namespace core
}  // namespace adahealth
