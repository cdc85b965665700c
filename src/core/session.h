// End-to-end ADA-HEALTH analysis session — the orchestration of every
// architecture block of the paper's Figure 1:
//
//   characterize -> select transformation -> adaptive partial mining
//   -> algorithm optimization -> knowledge extraction (clusters,
//   generalized itemsets, association rules) -> K-DB storage ->
//   feedback-adaptive ranking.
#ifndef ADAHEALTH_CORE_SESSION_H_
#define ADAHEALTH_CORE_SESSION_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/retry.h"
#include "core/characterization.h"
#include "core/knowledge.h"
#include "core/optimizer.h"
#include "core/partial_mining.h"
#include "core/ranking.h"
#include "core/transform_selector.h"
#include "dataset/synthetic_cohort.h"
#include "kdb/database.h"
#include "patterns/generalized.h"
#include "patterns/rules.h"

namespace adahealth {
namespace core {

/// How one pipeline stage ended under the resilience layer.
enum class StageState {
  kOk = 0,        // Succeeded (possibly after retries — see attempts).
  kDegraded = 1,  // Failed or overran its budget; a fallback was used.
  kSkipped = 2,   // Not applicable this run (e.g. no taxonomy).
  kFailed = 3,    // Essential stage exhausted retries; session aborted.
};

/// "ok" / "degraded" / "skipped" / "failed".
const char* StageStateName(StageState state);

/// Structured record of one Figure-1 stage execution.
struct StageOutcome {
  /// Stage name ("characterize", "transform", "partial_mining",
  /// "optimizer", "knowledge", "pattern_mining", "ranking",
  /// "kdb_store"); the matching failpoint is "session.<name>".
  std::string stage;
  StageState state = StageState::kOk;
  /// Final status: OK for kOk/kSkipped, the terminal error for
  /// kDegraded/kFailed (budget overruns carry DEADLINE_EXCEEDED).
  common::Status status;
  /// Attempts consumed (>= 1); > 1 means the stage was retried.
  int32_t attempts = 1;
  /// Stage wall time in seconds (all attempts).
  double seconds = 0.0;
  /// True when the stage finished but overran its wall-clock budget.
  bool over_budget = false;
};

/// Resilience knobs for AnalysisSession::Run: per-stage retry, budgets
/// and graceful degradation of non-essential stages.
struct ResilienceOptions {
  /// When false, any stage failure aborts the session immediately
  /// (pre-resilience behavior); outcomes are still recorded.
  bool enabled = true;
  /// Retry policy applied at every stage boundary (and thereby to the
  /// K-DB storage I/O the kdb_store stage performs).
  common::RetryPolicy retry;
  /// Advisory wall-clock budget per stage, in seconds; a finished
  /// stage that overran is marked degraded/over_budget (stages cannot
  /// be preempted mid-flight). <= 0 disables the budget.
  double default_stage_budget_seconds = 0.0;
  /// Per-stage budget overrides by stage name.
  std::map<std::string, double> stage_budget_seconds;
};

/// Cross-run warm-start hint for stage 4 (the streaming cohort
/// store's delta re-analysis): the previous generation's selected
/// centroids plus the metadata needed to prove they still mean what
/// they meant. The hint is applied only when `exam_types` equals the
/// exam types partial mining selects THIS run and the centroid width
/// matches the VSM — otherwise the session silently runs cold. Because
/// the optimizer's independent restarts still run with their cold
/// seeds, a hinted run's report is byte-identical to a cold run
/// whenever the same configurations win; the hint can only speed up or
/// improve the sweep, never change what a worse solution would have
/// produced. Deliberately excluded from SessionOptionsSignature (see
/// service/fingerprint.cc): delta and cold submissions of the same
/// accumulated data share one fingerprint.
struct WarmStartOptions {
  /// Prior generation's selected centroids, in mining-VSM space.
  /// Empty = no hint (the default, always-cold path).
  transform::Matrix centroids{};
  /// Original exam-type ids (pre-FilterExamTypes dictionary indices)
  /// the centroid columns correspond to, in column order.
  std::vector<int32_t> exam_types;
  /// Prior generation's selected K (stored for diagnostics; the sweep
  /// re-evaluates every candidate regardless).
  int32_t best_k = 0;
  /// Restart count used when the hint applies (replacing
  /// OptimizerOptions::restarts): the warm run replaces most of the
  /// cold restarts' work, so delta jobs keep one independent restart
  /// by default. Ignored on the cold path.
  int32_t restarts = 1;
};

struct SessionOptions {
  /// Identifier under which artifacts are stored in the K-DB.
  std::string dataset_id = "dataset";
  TransformSelectorOptions transform;
  PartialMiningOptions partial;
  OptimizerOptions optimizer;
  /// Pattern mining (requires a taxonomy; skipped when absent).
  patterns::GeneralizedMiningOptions pattern_mining;
  patterns::RuleOptions rules;
  /// Cap on stored "selected knowledge" items (K-DB collection 5);
  /// the paper's goal is "a manageable set of knowledge".
  size_t max_selected_items = 12;
  /// Skip the raw-dataset upload to the K-DB (it is large).
  bool store_raw_dataset = false;
  /// When non-empty, the kdb_store stage also persists the whole K-DB
  /// to this directory (atomic per-collection writes, retried).
  std::string persist_directory;
  ResilienceOptions resilience;
  WarmStartOptions warm;
};

struct SessionResult {
  CharacterizationReport characterization;
  TransformSelection transform;
  PartialMiningResult partial;
  OptimizerResult optimizer;
  /// All extracted knowledge items, ranked.
  std::vector<KnowledgeItem> knowledge;
  /// Original exam-type ids (indices into the input log's dictionary)
  /// that partial mining selected for the VSM, in column order — the
  /// column meaning of result.optimizer centroids. The cohort store
  /// persists these next to the centroids so a later generation can
  /// verify a warm hint still lines up (SessionOptions::warm).
  std::vector<int32_t> mining_exam_types;
  /// One outcome per executed stage, in pipeline order.
  std::vector<StageOutcome> stages;
  /// Multi-line human-readable run summary (includes a resilience
  /// line whenever any stage retried, degraded or was skipped).
  std::string summary;
};

/// One analysis session against a K-DB instance.
class AnalysisSession {
 public:
  /// `db` must outlive the session; the schema is created on demand.
  explicit AnalysisSession(kdb::Database* db);

  /// Runs the full pipeline on `log`. `taxonomy` may be null (pattern
  /// mining is then skipped).
  [[nodiscard]] common::StatusOr<SessionResult> Run(const dataset::ExamLog& log,
                                      const dataset::Taxonomy* taxonomy,
                                      const SessionOptions& options);

 private:
  kdb::Database* db_;
};

/// Builds one knowledge item per cluster of `clustering`, profiled by
/// lift-distinctive exams. Exposed for reuse by examples. Returns
/// INVALID_ARGUMENT when `vsm` and `clustering` shapes disagree
/// (previously such errors were silently swallowed into an empty list).
[[nodiscard]] common::StatusOr<std::vector<KnowledgeItem>>
ClusterKnowledgeItems(const dataset::ExamLog& log,
                      const transform::Matrix& vsm,
                      const cluster::Clustering& clustering);

/// Builds a knowledge item listing the `top_n` most atypical patients
/// (centroid-relative outlier scores). An empty result (no outliers) is
/// OK; shape mismatches are INVALID_ARGUMENT.
[[nodiscard]] common::StatusOr<std::vector<KnowledgeItem>>
OutlierKnowledgeItems(const transform::Matrix& vsm,
                      const cluster::Clustering& clustering,
                      size_t top_n = 10);

}  // namespace core
}  // namespace adahealth

#endif  // ADAHEALTH_CORE_SESSION_H_
