// Direct calls into the program's layers for the traced run's
// breakdown: the public stage functions of one session, each timed
// from outside, with the registry deltas that split the optimizer
// stage into k-means and cross-validation. Nothing inside src/ is
// traced.
#ifndef SERVICEBENCH_LAYERS_H_
#define SERVICEBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/optimizer.h"
#include "service/scheduler.h"
#include "trace.h"
#include "transform/matrix.h"

namespace servicebench {

namespace transform = adahealth::transform;

/// Stage names, in pipeline order, as the per-layer metrics name them
/// (stage.<name>_s).
inline const char* const kStageNames[] = {
    "characterize", "transform_select", "partial_mining",
    "build_vsm",    "optimizer",        "knowledge",
    "pattern_mining", "ranking",        "render"};

/// Registry instruments the optimizer and its layers record into.
struct RegistryReading {
  double cv_seconds = 0.0;      // optimizer/cv_seconds total.
  double kmeans_seconds = 0.0;  // optimizer/kmeans_seconds total.
  int64_t cv_folds = 0;
  double fold_fit_seconds = 0.0;  // cv/fold_fit_seconds total.
  int64_t fold_fits = 0;          // cv/fold_fit_seconds count.
  int64_t kmeans_runs = 0;
  int64_t kmeans_iterations = 0;
  int64_t kmeans_skipped = 0;
  int64_t kmeans_assign_passes = 0;
  int64_t partial_steps = 0;

  static RegistryReading Take();
  RegistryReading operator-(const RegistryReading& before) const;
};

struct StageTrace {
  /// Wall seconds per stage name (render excluded: it needs a
  /// SessionResult, see RunDirect).
  std::map<std::string, double> stage_seconds;
  RegistryReading registry;            // Deltas over the stage calls.
  RegistryReading optimizer_registry;  // Deltas over OptimizeClustering.
  transform::Matrix vsm;
  adahealth::core::OptimizerResult optimizer;
};

/// Runs the session's stages one public function at a time, each in a
/// span, mirroring AnalysisSession::Run (including the warm-start
/// identity gate) without the resilience layer or the K-DB writes.
[[nodiscard]] adahealth::common::StatusOr<StageTrace> TraceStages(
    const adahealth::service::JobRequest& request, Tracer* tracer,
    int64_t job);

}  // namespace servicebench

#endif  // SERVICEBENCH_LAYERS_H_
