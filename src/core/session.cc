#include "core/session.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "cluster/outliers.h"
#include "cluster/profiles.h"
#include "cluster/quality.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "patterns/fpgrowth.h"
#include "transform/feature_select.h"

namespace adahealth {
namespace core {

using common::Json;
using common::StatusOr;
using dataset::ExamLog;

// GCC 12's -Wmaybe-uninitialized misfires on moved-from std::variant
// alternatives inside Json when the Json(Object&&) constructions below
// are inlined at -O2; scoped suppression keeps -Werror builds clean
// without disabling the check elsewhere.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
StatusOr<std::vector<KnowledgeItem>> ClusterKnowledgeItems(
    const ExamLog& log, const transform::Matrix& vsm,
    const cluster::Clustering& clustering) {
  std::vector<KnowledgeItem> items;
  auto profiles = cluster::BuildClusterProfiles(log, vsm, clustering);
  if (!profiles.ok()) return profiles.status();

  for (const cluster::ClusterProfile& profile : profiles.value()) {
    // Signature: the lift-distinctive exams, which read clinically
    // ("this group over-uses ophthalmology_4 by 5x"), falling back to
    // the heaviest exams for clusters with no distinctive ones.
    std::string signature;
    Json::Array top_exams;
    const auto& ranked = profile.top_by_lift.empty()
                             ? profile.top_by_weight
                             : profile.top_by_lift;
    for (size_t rank = 0; rank < std::min<size_t>(3, ranked.size());
         ++rank) {
      const cluster::SignatureExam& exam = ranked[rank];
      if (!signature.empty()) signature += ", ";
      signature += common::StrFormat(
          "%s (x%.1f)", log.dictionary().Name(exam.exam).c_str(),
          exam.lift);
      Json::Object exam_json;
      exam_json["exam"] = Json(log.dictionary().Name(exam.exam));
      exam_json["lift"] = Json(exam.lift);
      exam_json["cluster_mean"] = Json(exam.cluster_mean);
      top_exams.push_back(Json(std::move(exam_json)));
    }

    KnowledgeItem item;
    item.id = "cluster:" + std::to_string(profile.cluster);
    item.goal = EndGoal::kPatientGrouping;
    item.kind = "cluster";
    item.quality = profile.cohesion;
    item.description = common::StrFormat(
        "patient group %d: %lld patients, distinctive exams [%s], "
        "cohesion %.3f",
        profile.cluster, static_cast<long long>(profile.size),
        signature.c_str(), item.quality);
    Json::Object payload;
    payload["cluster"] = Json(static_cast<int64_t>(profile.cluster));
    payload["size"] = Json(profile.size);
    payload["cohesion"] = Json(item.quality);
    payload["top_exams"] = Json(std::move(top_exams));
    item.payload = Json(std::move(payload));
    items.push_back(std::move(item));
  }
  return items;
}
#pragma GCC diagnostic pop

/// Builds one knowledge item summarizing the most atypical patients of
/// the clustering (paper §IV-B mentions outlier detection as a
/// downstream analysis).
StatusOr<std::vector<KnowledgeItem>> OutlierKnowledgeItems(
    const transform::Matrix& vsm, const cluster::Clustering& clustering,
    size_t top_n) {
  std::vector<KnowledgeItem> items;
  auto scores = cluster::CentroidOutlierScores(vsm, clustering);
  if (!scores.ok()) return scores.status();
  std::vector<size_t> top = cluster::TopOutliers(scores.value(), top_n);
  if (top.empty()) return items;

  KnowledgeItem item;
  item.id = "outliers:0";
  item.goal = EndGoal::kPatientGrouping;
  item.kind = "outliers";
  // Quality: how far the most atypical patient deviates, squashed to
  // (0, 1); score 1.0 (typical) maps to ~0.27.
  double worst = scores.value()[top.front()];
  item.quality = worst / (worst + 2.7);
  item.description = common::StrFormat(
      "%zu patients with atypical examination histories (max deviation "
      "%.1fx the group norm)",
      top.size(), worst);
  Json::Array patients;
  for (size_t row : top) {
    Json::Object entry;
    entry["patient"] = Json(static_cast<int64_t>(row));
    entry["score"] = Json(scores.value()[row]);
    patients.push_back(Json(std::move(entry)));
  }
  Json::Object payload;
  payload["patients"] = Json(std::move(patients));
  item.payload = Json(std::move(payload));
  items.push_back(std::move(item));
  return items;
}

const char* StageStateName(StageState state) {
  switch (state) {
    case StageState::kOk:
      return "ok";
    case StageState::kDegraded:
      return "degraded";
    case StageState::kSkipped:
      return "skipped";
    case StageState::kFailed:
      return "failed";
  }
  return "unknown";
}

namespace {

/// Executes stage bodies under the session's retry policy, budgets and
/// degradation rules, recording one StageOutcome per stage. Bodies
/// must be safe to re-run (retries re-enter them from the top) and
/// commit their results only on success.
class StageRunner {
 public:
  StageRunner(const ResilienceOptions& options, SessionResult* result)
      : options_(options),
        result_(result),
        metrics_(common::MetricsRegistry::Default()) {}

  /// Runs `body` as stage `name`, timing it into `histogram`. The
  /// failpoint "session.<name>" is evaluated on every attempt. Returns
  /// non-OK only when the session must abort: the stage is essential
  /// (or resilience is disabled) and its retries are exhausted.
  /// Non-essential failures record a kDegraded outcome and return OK —
  /// callers apply their fallback when NeedsFallback() afterwards.
  [[nodiscard]] common::Status Run(
      const std::string& name, bool essential, std::string_view histogram,
      const std::function<common::Status()>& body) {
    StageOutcome outcome;
    outcome.stage = name;
    common::RetryPolicy policy = options_.retry;
    if (!options_.enabled) policy.max_attempts = 1;
    common::WallTimer timer;
    common::Status status = common::RetryWithPolicy(
        policy, "session." + name,
        [&] {
          ADA_RETURN_IF_ERROR(ADA_FAILPOINT(std::string("session.") + name));
          return body();
        },
        &outcome.attempts);
    outcome.seconds = timer.ElapsedSeconds();
    metrics_.GetHistogram(histogram).Record(outcome.seconds);
    if (outcome.attempts > 1) {
      metrics_.GetCounter("session/stage_retried").Increment();
    }
    if (status.ok()) {
      double budget = BudgetFor(name);
      if (budget > 0.0 && outcome.seconds > budget) {
        // The stage finished and its results are used; the overrun is
        // surfaced so operators can see the budget was blown.
        outcome.over_budget = true;
        outcome.state = StageState::kDegraded;
        outcome.status = common::DeadlineExceededError(common::StrFormat(
            "stage '%s' overran its budget (%.3f s > %.3f s)", name.c_str(),
            outcome.seconds, budget));
        metrics_.GetCounter("stage_degraded_total").Increment();
      }
      result_->stages.push_back(std::move(outcome));
      return common::OkStatus();
    }
    outcome.status = status;
    if (essential || !options_.enabled) {
      outcome.state = StageState::kFailed;
      metrics_.GetCounter("session/stage_failed").Increment();
      result_->stages.push_back(std::move(outcome));
      return status;
    }
    outcome.state = StageState::kDegraded;
    metrics_.GetCounter("stage_degraded_total").Increment();
    result_->stages.push_back(std::move(outcome));
    return common::OkStatus();
  }

  /// Records a stage that does not apply to this run.
  void Skip(const std::string& name, std::string reason) {
    StageOutcome outcome;
    outcome.stage = name;
    outcome.state = StageState::kSkipped;
    outcome.attempts = 0;
    outcome.status =
        common::Status(common::StatusCode::kOk, std::move(reason));
    result_->stages.push_back(std::move(outcome));
  }

  /// True when the most recent stage failed and degraded (its results
  /// are unusable and the caller must substitute a fallback). Budget
  /// overruns do NOT need a fallback — the stage's results are valid.
  [[nodiscard]] bool NeedsFallback() const {
    if (result_->stages.empty()) return false;
    const StageOutcome& last = result_->stages.back();
    return last.state == StageState::kDegraded && !last.over_budget;
  }

 private:
  double BudgetFor(const std::string& name) const {
    auto it = options_.stage_budget_seconds.find(name);
    if (it != options_.stage_budget_seconds.end()) return it->second;
    return options_.default_stage_budget_seconds;
  }

  const ResilienceOptions& options_;
  SessionResult* result_;
  common::MetricsRegistry& metrics_;
};

/// Stage 6 body: generalized itemsets + group-level association rules.
/// Builds into a local vector and appends to `knowledge` only on full
/// success, so a retried or degraded stage never leaves partial items.
common::Status MinePatternKnowledge(const ExamLog& log,
                                    const dataset::Taxonomy& taxonomy,
                                    const SessionOptions& options,
                                    std::vector<KnowledgeItem>& knowledge) {
  std::vector<KnowledgeItem> mined;
  auto generalized =
      patterns::MineGeneralized(log, taxonomy, options.pattern_mining);
  if (!generalized.ok()) return generalized.status();
  // Keep the largest high-level itemsets (most abstract knowledge).
  std::vector<patterns::GeneralizedItemset> interesting;
  for (auto& itemset : generalized.value()) {
    if (itemset.items.size() >= 2) interesting.push_back(std::move(itemset));
  }
  std::sort(interesting.begin(), interesting.end(),
            [](const auto& a, const auto& b) {
              if (a.support != b.support) return a.support > b.support;
              if (a.level != b.level) return a.level > b.level;
              return a.items < b.items;
            });
  const double total =
      static_cast<double>(std::max<size_t>(1, log.num_patients()));
  for (size_t i = 0; i < std::min<size_t>(interesting.size(), 10); ++i) {
    const auto& itemset = interesting[i];
    KnowledgeItem item;
    item.id = "itemset:" + std::to_string(i);
    item.goal = EndGoal::kCommonExamPatterns;
    item.kind = "itemset";
    item.quality = static_cast<double>(itemset.support) / total;
    item.description =
        "frequent pattern " +
        patterns::FormatGeneralizedItemset(itemset, log, taxonomy);
    Json::Object payload;
    payload["level"] = Json(static_cast<int64_t>(itemset.level));
    payload["support"] = Json(itemset.support);
    Json::Array item_ids;
    for (auto id : itemset.items) {
      item_ids.push_back(Json(static_cast<int64_t>(id)));
    }
    payload["items"] = Json(std::move(item_ids));
    item.payload = Json(std::move(payload));
    mined.push_back(std::move(item));
  }

  // Association rules at the group level (interaction discovery).
  patterns::TransactionDb group_db =
      patterns::BuildTransactionsAtLevel(log, taxonomy, 1);
  patterns::MiningOptions mining;
  mining.min_support_count = patterns::AbsoluteSupport(
      options.pattern_mining.min_support_level1, group_db.size());
  mining.max_itemset_size = options.pattern_mining.max_itemset_size;
  auto itemsets = patterns::MineFpGrowth(group_db, mining);
  if (!itemsets.ok()) return itemsets.status();
  auto rules = patterns::GenerateRules(itemsets.value(), group_db.size(),
                                       options.rules);
  if (!rules.ok()) return rules.status();
  for (size_t i = 0; i < std::min<size_t>(rules->size(), 10); ++i) {
    const patterns::AssociationRule& rule = (*rules)[i];
    auto render = [&](const std::vector<patterns::ItemId>& items) {
      std::string out;
      for (size_t j = 0; j < items.size(); ++j) {
        if (j > 0) out += ", ";
        out += taxonomy.GroupName(
            items[j] - static_cast<int32_t>(taxonomy.num_leaves()));
      }
      return out;
    };
    KnowledgeItem item;
    item.id = "rule:" + std::to_string(i);
    item.goal = EndGoal::kInteractionDiscovery;
    item.kind = "rule";
    item.quality = rule.confidence;
    item.description = common::StrFormat(
        "{%s} => {%s} (conf %.2f, lift %.2f)",
        render(rule.antecedent).c_str(), render(rule.consequent).c_str(),
        rule.confidence, rule.lift);
    Json::Object payload;
    payload["support"] = Json(rule.support);
    payload["confidence"] = Json(rule.confidence);
    payload["lift"] = Json(rule.lift);
    item.payload = Json(std::move(payload));
    mined.push_back(std::move(item));
  }

  for (KnowledgeItem& item : mined) knowledge.push_back(std::move(item));
  return common::OkStatus();
}

}  // namespace

AnalysisSession::AnalysisSession(kdb::Database* db) : db_(db) {
  db_->EnsureAdaHealthSchema();
}

StatusOr<SessionResult> AnalysisSession::Run(const ExamLog& log,
                                             const dataset::Taxonomy* taxonomy,
                                             const SessionOptions& options) {
  SessionResult result;
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.GetCounter("session/runs").Increment();
  // Touch the resilience counters so every metrics export (bench JSON
  // dumps included) carries them even when they stay at zero.
  metrics.GetCounter("stage_degraded_total");
  metrics.GetCounter("retry_attempts");
  common::ScopedTimer session_timer(metrics, "session/total_seconds");
  StageRunner stages(options.resilience, &result);

  // 1. Characterization (K-DB collections 1 and 3). Non-essential:
  // failing it costs those collections, not the run.
  ADA_RETURN_IF_ERROR(stages.Run(
      "characterize", /*essential=*/false, "session/characterize_seconds",
      [&] {
        result.characterization = Characterize(log);
        if (options.store_raw_dataset) {
          kdb::Document raw;
          raw.Set("dataset_id", Json(options.dataset_id));
          raw.Set("csv", Json(log.ToCsv()));
          db_->GetOrCreate(kdb::Schema::kRawDatasets).Insert(std::move(raw));
        }
        StoreCharacterization(result.characterization, options.dataset_id,
                              *db_);
        return common::OkStatus();
      }));

  // 2. Transformation selection. Essential: everything downstream
  // needs the chosen VSM configuration.
  ADA_RETURN_IF_ERROR(stages.Run(
      "transform", /*essential=*/true, "session/transform_select_seconds",
      [&] {
        auto selection = SelectTransformation(log, options.transform);
        if (!selection.ok()) return selection.status();
        result.transform = std::move(selection).value();
        return common::OkStatus();
      }));

  // 3. Adaptive partial mining: pick the smallest exam subset whose
  // clustering quality matches the full data within tolerance.
  // Non-essential: on failure, degrade to mining the full dataset.
  PartialMiningOptions partial = options.partial;
  partial.vsm = result.transform.best();
  ADA_RETURN_IF_ERROR(stages.Run(
      "partial_mining", /*essential=*/false,
      "session/partial_mining_seconds", [&] {
        auto partial_result = RunExamSubsetPartialMining(log, partial);
        if (!partial_result.ok()) return partial_result.status();
        result.partial = std::move(partial_result).value();
        return common::OkStatus();
      }));
  if (stages.NeedsFallback()) {
    result.partial = PartialMiningResult{};
    result.partial.ks = partial.ks;
    PartialMiningStep full_step;
    full_step.fraction = 1.0;
    full_step.record_coverage = 1.0;
    result.partial.steps.push_back(full_step);
    result.partial.selected_step = 0;
  }
  const PartialMiningStep& selected =
      result.partial.steps[result.partial.selected_step];
  const std::vector<bool> mining_mask =
      transform::TopFractionExamsMask(log, selected.fraction);
  ExamLog mining_log = log.FilterExamTypes(mining_mask);
  // The original exam ids behind the VSM columns (FilterExamTypes
  // rebuilds a dense dictionary in kept order, so column j of the VSM
  // is the j-th true bit of the mask). The cohort store persists these
  // with the selected centroids for next generation's warm hint.
  for (size_t e = 0; e < mining_mask.size(); ++e) {
    if (mining_mask[e]) {
      result.mining_exam_types.push_back(static_cast<int32_t>(e));
    }
  }

  // Record the transformed dataset in the K-DB (collection 2).
  {
    kdb::Document transformed;
    transformed.Set("dataset_id", Json(options.dataset_id));
    transformed.Set("vsm_weighting",
                    Json(std::string(transform::VsmWeightingName(
                        result.transform.best().weighting))));
    transformed.Set("vsm_normalization",
                    Json(std::string(transform::VsmNormalizationName(
                        result.transform.best().normalization))));
    transformed.Set("exam_fraction", Json(selected.fraction));
    transformed.Set("record_coverage", Json(selected.record_coverage));
    transformed.Set("num_exam_types",
                    Json(static_cast<int64_t>(mining_log.num_exam_types())));
    db_->GetOrCreate(kdb::Schema::kTransformedDatasets)
        .Insert(std::move(transformed));
  }

  // 4. Algorithm optimization on the selected subset (Table I).
  // Essential: knowledge extraction needs the chosen clustering.
  transform::Matrix vsm = BuildVsm(mining_log, result.transform.best());
  // Warm-start identity gate: the prior generation's centroids are
  // adopted only when they provably mean the same thing this run —
  // partial mining selected the same original exam types and the
  // widths agree. Anything else (new exams changed the selection, a
  // different fraction won) silently runs the cold sweep; the hint is
  // never applied blind.
  OptimizerOptions optimizer_options = options.optimizer;
  if (!options.warm.centroids.empty() &&
      options.warm.exam_types == result.mining_exam_types &&
      options.warm.centroids.cols() == vsm.cols()) {
    optimizer_options.warm_centroids = options.warm.centroids;
    optimizer_options.restarts = std::max(1, options.warm.restarts);
    common::MetricsRegistry::Default()
        .GetCounter("session/warm_hints_applied")
        .Increment();
  }
  ADA_RETURN_IF_ERROR(stages.Run(
      "optimizer", /*essential=*/true, "session/optimize_seconds", [&] {
        auto optimized = OptimizeClustering(vsm, optimizer_options);
        if (!optimized.ok()) return optimized.status();
        result.optimizer = std::move(optimized).value();
        return common::OkStatus();
      }));

  // 5. Knowledge extraction (clusters + outliers). Non-essential: a
  // failure degrades to an empty knowledge list; the session still
  // reports characterization, transform and optimizer results.
  std::vector<KnowledgeItem> knowledge;
  ADA_RETURN_IF_ERROR(stages.Run(
      "knowledge", /*essential=*/false, "session/knowledge_seconds", [&] {
        std::vector<KnowledgeItem> items;
        auto cluster_items = ClusterKnowledgeItems(
            mining_log, vsm, result.optimizer.best().clustering);
        if (!cluster_items.ok()) return cluster_items.status();
        items = std::move(cluster_items).value();
        auto outlier_items =
            OutlierKnowledgeItems(vsm, result.optimizer.best().clustering);
        if (!outlier_items.ok()) return outlier_items.status();
        for (KnowledgeItem& item : outlier_items.value()) {
          items.push_back(std::move(item));
        }
        knowledge = std::move(items);
        return common::OkStatus();
      }));

  // 6. Generalized pattern mining + association rules. Skipped without
  // a taxonomy; non-essential otherwise (clusters/outliers survive).
  if (taxonomy == nullptr) {
    stages.Skip("pattern_mining", "no taxonomy provided");
  } else {
    ADA_RETURN_IF_ERROR(stages.Run(
        "pattern_mining", /*essential=*/false,
        "session/pattern_mining_seconds",
        [&] { return MinePatternKnowledge(log, *taxonomy, options,
                                          knowledge); }));
  }

  // 7. Feedback-adaptive ranking. Non-essential: on failure the
  // unranked extraction order is served instead.
  ADA_RETURN_IF_ERROR(stages.Run(
      "ranking", /*essential=*/false, "session/ranking_seconds", [&] {
        KnowledgeRanker ranker;
        ADA_RETURN_IF_ERROR(ranker.AddItems(knowledge));
        result.knowledge = ranker.Ranked();
        return common::OkStatus();
      }));
  if (stages.NeedsFallback()) result.knowledge = knowledge;

  // 8. Store all items (collection 4) and the manageable selected
  // subset (collection 5); optionally persist the K-DB to disk.
  // Non-essential: analysis results survive a broken store. The
  // in-memory inserts happen exactly once (`stored`) so storage-I/O
  // retries cannot duplicate documents.
  bool stored = false;
  ADA_RETURN_IF_ERROR(stages.Run(
      "kdb_store", /*essential=*/false, "session/store_seconds", [&] {
        if (!stored) {
          kdb::Collection& item_collection =
              db_->GetOrCreate(kdb::Schema::kKnowledgeItems);
          for (const KnowledgeItem& item : knowledge) {
            kdb::Document document;
            document.Set("dataset_id", Json(options.dataset_id));
            document.Set("item", item.ToJson());
            item_collection.Insert(std::move(document));
          }
          kdb::Collection& selected_collection =
              db_->GetOrCreate(kdb::Schema::kSelectedKnowledge);
          for (size_t i = 0;
               i <
               std::min(options.max_selected_items, result.knowledge.size());
               ++i) {
            kdb::Document document;
            document.Set("dataset_id", Json(options.dataset_id));
            document.Set("rank", Json(static_cast<int64_t>(i)));
            document.Set("item", result.knowledge[i].ToJson());
            selected_collection.Insert(std::move(document));
          }
          stored = true;
        }
        if (!options.persist_directory.empty()) {
          kdb::Database::PersistOptions persist;
          // The stage-level retry already wraps this call.
          persist.retry.max_attempts = 1;
          return db_->SaveTo(options.persist_directory, persist);
        }
        return common::OkStatus();
      }));

  result.summary = common::StrFormat(
      "ADA-HEALTH session '%s'\n"
      "  characterization: %lld patients, %lld exam types, %lld records, "
      "density %.4f\n"
      "  transformation: %s/%s (similarity lift %.2fx)\n"
      "  partial mining: selected %.0f%% of exam types (%.0f%% of "
      "records), quality diff %.2f%%\n"
      "  optimizer: best K = %d (SSE %.1f, accuracy %.2f, precision "
      "%.2f, recall %.2f)\n"
      "  knowledge: %zu items extracted, top %zu selected",
      options.dataset_id.c_str(),
      static_cast<long long>(result.characterization.features.num_patients),
      static_cast<long long>(
          result.characterization.features.num_exam_types),
      static_cast<long long>(result.characterization.features.num_records),
      result.characterization.features.density,
      transform::VsmWeightingName(result.transform.best().weighting),
      transform::VsmNormalizationName(result.transform.best().normalization),
      result.transform.scores[result.transform.best_index].lift,
      100.0 * selected.fraction, 100.0 * selected.record_coverage,
      100.0 * selected.mean_relative_diff, result.optimizer.best_k(),
      result.optimizer.best().sse, result.optimizer.best().accuracy,
      result.optimizer.best().avg_precision,
      result.optimizer.best().avg_recall, result.knowledge.size(),
      std::min(options.max_selected_items, result.knowledge.size()));
  std::string resilience_note;
  for (const StageOutcome& outcome : result.stages) {
    if (outcome.state == StageState::kOk && outcome.attempts <= 1) continue;
    if (!resilience_note.empty()) resilience_note += ", ";
    resilience_note += common::StrFormat(
        "%s=%s(%d attempt%s)", outcome.stage.c_str(),
        StageStateName(outcome.state), outcome.attempts,
        outcome.attempts == 1 ? "" : "s");
  }
  if (!resilience_note.empty()) {
    result.summary += "\n  resilience: " + resilience_note;
  }
  return result;
}

}  // namespace core
}  // namespace adahealth
