#include "layers.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/metrics.h"
#include "core/characterization.h"
#include "core/knowledge.h"
#include "core/partial_mining.h"
#include "core/ranking.h"
#include "core/session.h"
#include "core/transform_selector.h"
#include "patterns/apriori.h"
#include "patterns/fpgrowth.h"
#include "patterns/generalized.h"
#include "patterns/rules.h"
#include "patterns/transactions.h"
#include "transform/feature_select.h"
#include "transform/vsm.h"

namespace servicebench {

namespace adh = adahealth;
using adh::common::StatusOr;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times one stage body into `trace` under a span.
template <typename Body>
auto TimeStage(StageTrace& trace, Tracer* tracer, int64_t parent, int64_t job,
               const std::string& stage, Body&& body) {
  ScopedSpan span(tracer, "stage." + stage, "core", parent, job);
  const auto start = Clock::now();
  auto value = body();
  trace.stage_seconds[stage] += SecondsSince(start);
  return value;
}

}  // namespace

RegistryReading RegistryReading::Take() {
  adh::common::MetricsRegistry& metrics =
      adh::common::MetricsRegistry::Default();
  RegistryReading reading;
  reading.cv_seconds = metrics.GetHistogram("optimizer/cv_seconds").total_seconds();
  reading.kmeans_seconds =
      metrics.GetHistogram("optimizer/kmeans_seconds").total_seconds();
  reading.cv_folds = metrics.GetCounter("cv/folds").value();
  const adh::common::LatencyHistogram::Snapshot fits =
      metrics.GetHistogram("cv/fold_fit_seconds").snapshot();
  reading.fold_fit_seconds = fits.total_seconds;
  reading.fold_fits = fits.count;
  reading.kmeans_runs = metrics.GetCounter("kmeans/runs").value();
  reading.kmeans_iterations = metrics.GetCounter("kmeans/iterations").value();
  reading.kmeans_skipped =
      metrics.GetCounter("kmeans/skipped_distance_checks").value();
  reading.kmeans_assign_passes =
      metrics.GetCounter("kmeans/assign_passes").value();
  reading.partial_steps = metrics.GetCounter("partial_mining/steps").value();
  return reading;
}

RegistryReading RegistryReading::operator-(const RegistryReading& before) const {
  RegistryReading delta;
  delta.cv_seconds = cv_seconds - before.cv_seconds;
  delta.kmeans_seconds = kmeans_seconds - before.kmeans_seconds;
  delta.cv_folds = cv_folds - before.cv_folds;
  delta.fold_fit_seconds = fold_fit_seconds - before.fold_fit_seconds;
  delta.fold_fits = fold_fits - before.fold_fits;
  delta.kmeans_runs = kmeans_runs - before.kmeans_runs;
  delta.kmeans_iterations = kmeans_iterations - before.kmeans_iterations;
  delta.kmeans_skipped = kmeans_skipped - before.kmeans_skipped;
  delta.kmeans_assign_passes = kmeans_assign_passes - before.kmeans_assign_passes;
  delta.partial_steps = partial_steps - before.partial_steps;
  return delta;
}

StatusOr<StageTrace> TraceStages(const adh::service::JobRequest& request,
                                 Tracer* tracer, int64_t job) {
  const adh::dataset::ExamLog& log = request.log;
  const adh::core::SessionOptions& options = request.options;
  StageTrace trace;
  ScopedSpan root(tracer, "session.stages", "core", 0, job);
  const RegistryReading before = RegistryReading::Take();

  adh::core::CharacterizationReport characterization = TimeStage(
      trace, tracer, root.id(), job, "characterize",
      [&] { return adh::core::Characterize(log); });
  {
    ScopedSpan span(tracer, "kdb.store_characterization", "kdb", root.id(), job);
    adh::kdb::Database db;
    db.EnsureAdaHealthSchema();
    (void)adh::core::StoreCharacterization(characterization,
                                           options.dataset_id, db);
  }

  auto selection = TimeStage(trace, tracer, root.id(), job, "transform_select", [&] {
    return adh::core::SelectTransformation(log, options.transform);
  });
  if (!selection.ok()) return selection.status();

  adh::core::PartialMiningOptions partial = options.partial;
  partial.vsm = selection->best();
  auto mined = TimeStage(trace, tracer, root.id(), job, "partial_mining", [&] {
    return adh::core::RunExamSubsetPartialMining(log, partial);
  });
  if (!mined.ok()) return mined.status();
  const adh::core::PartialMiningStep& selected =
      mined->steps[mined->selected_step];

  std::vector<int32_t> mining_exam_types;
  adh::dataset::ExamLog mining_log =
      TimeStage(trace, tracer, root.id(), job, "build_vsm", [&] {
        const std::vector<bool> mask =
            transform::TopFractionExamsMask(log, selected.fraction);
        for (size_t e = 0; e < mask.size(); ++e) {
          if (mask[e]) mining_exam_types.push_back(static_cast<int32_t>(e));
        }
        adh::dataset::ExamLog filtered = log.FilterExamTypes(mask);
        trace.vsm = transform::BuildVsm(filtered, selection->best());
        return filtered;
      });

  adh::core::OptimizerOptions optimizer_options = options.optimizer;
  if (!options.warm.centroids.empty() &&
      options.warm.exam_types == mining_exam_types &&
      options.warm.centroids.cols() == trace.vsm.cols()) {
    optimizer_options.warm_centroids = options.warm.centroids;
    optimizer_options.restarts = std::max(1, options.warm.restarts);
  }
  const RegistryReading before_optimizer = RegistryReading::Take();
  auto optimized = TimeStage(trace, tracer, root.id(), job, "optimizer", [&] {
    return adh::core::OptimizeClustering(trace.vsm, optimizer_options);
  });
  if (!optimized.ok()) return optimized.status();
  trace.optimizer_registry = RegistryReading::Take() - before_optimizer;
  trace.optimizer = std::move(optimized).value();

  auto knowledge = TimeStage(trace, tracer, root.id(), job, "knowledge", [&] {
    StatusOr<std::vector<adh::core::KnowledgeItem>> items =
        adh::core::ClusterKnowledgeItems(mining_log, trace.vsm,
                                         trace.optimizer.best().clustering);
    if (!items.ok()) return items;
    auto outliers = adh::core::OutlierKnowledgeItems(
        trace.vsm, trace.optimizer.best().clustering);
    if (!outliers.ok()) return outliers;
    for (auto& item : outliers.value()) items->push_back(std::move(item));
    return items;
  });
  if (!knowledge.ok()) return knowledge.status();

  // Jobs without a taxonomy skip pattern mining, as the session does;
  // the stage then times only that decision.
  adh::common::Status mined_patterns =
      TimeStage(trace, tracer, root.id(), job, "pattern_mining", [&] {
        if (!request.taxonomy.has_value()) return adh::common::OkStatus();
        const adh::dataset::Taxonomy& taxonomy = *request.taxonomy;
        auto generalized = adh::patterns::MineGeneralized(
            log, taxonomy, options.pattern_mining);
        if (!generalized.ok()) return generalized.status();
        adh::patterns::TransactionDb groups =
            adh::patterns::BuildTransactionsAtLevel(log, taxonomy, 1);
        adh::patterns::MiningOptions mining;
        mining.min_support_count = adh::patterns::AbsoluteSupport(
            options.pattern_mining.min_support_level1, groups.size());
        mining.max_itemset_size = options.pattern_mining.max_itemset_size;
        auto itemsets = adh::patterns::MineFpGrowth(groups, mining);
        if (!itemsets.ok()) return itemsets.status();
        return adh::patterns::GenerateRules(itemsets.value(), groups.size(),
                                            options.rules)
            .status();
      });
  if (!mined_patterns.ok()) return mined_patterns;

  adh::common::Status ranked = TimeStage(trace, tracer, root.id(), job, "ranking", [&] {
    adh::core::KnowledgeRanker ranker;
    ADA_RETURN_IF_ERROR(ranker.AddItems(knowledge.value()));
    (void)ranker.Ranked();
    return adh::common::OkStatus();
  });
  if (!ranked.ok()) return ranked;

  trace.registry = RegistryReading::Take() - before;
  return trace;
}

}  // namespace servicebench
