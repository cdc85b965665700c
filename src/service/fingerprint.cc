#include "service/fingerprint.h"

#include <cstring>

#include "common/string_util.h"
#include "stats/meta_features.h"
#include "transform/vsm.h"

namespace adahealth {
namespace service {

namespace {

constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void AppendKMeans(std::string& out, const cluster::KMeansOptions& kmeans) {
  out += common::StrFormat(
      "k=%d init=%d max_iter=%d seed=%llu engine=%d warm_rows=%zu;",
      kmeans.k, static_cast<int>(kmeans.init), kmeans.max_iterations,
      static_cast<unsigned long long>(kmeans.seed),
      static_cast<int>(kmeans.engine), kmeans.initial_centroids.rows());
}

void AppendVsm(std::string& out, const transform::VsmOptions& vsm) {
  out += common::StrFormat("%s/%s;", transform::VsmWeightingName(vsm.weighting),
                           transform::VsmNormalizationName(vsm.normalization));
}

}  // namespace

Fnv1a& Fnv1a::Mix(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= kFnvPrime;
  }
  return *this;
}

Fnv1a& Fnv1a::MixString(std::string_view text) {
  MixInt(static_cast<int64_t>(text.size()));  // Length-prefix: "ab","c"
  return Mix(text.data(), text.size());       // never equals "a","bc".
}

Fnv1a& Fnv1a::MixInt(int64_t value) { return Mix(&value, sizeof(value)); }

Fnv1a& Fnv1a::MixDouble(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return Mix(&bits, sizeof(bits));
}

std::string SessionOptionsSignature(const core::SessionOptions& options) {
  // SessionOptions::warm is deliberately NOT part of the signature:
  // the session's identity gate guarantees a warm hint can only change
  // which (equivalent-or-better) solution the sweep converges to, and
  // the delta-vs-cold tests pin report byte-identity on the scenarios
  // the cohort store serves — so a delta job and a cold job over the
  // same accumulated data must share one fingerprint, letting the
  // result cache dedup them.
  std::string out;
  out += "dataset_id=" + options.dataset_id + ";";

  out += "transform:";
  for (const transform::VsmOptions& candidate :
       options.transform.candidates) {
    AppendVsm(out, candidate);
  }
  out += common::StrFormat(
      "sample=%.17g proxy_k=%d seed=%llu;", options.transform.sample_fraction,
      options.transform.proxy_k,
      static_cast<unsigned long long>(options.transform.seed));

  out += "partial:";
  for (double fraction : options.partial.fractions) {
    out += common::StrFormat("%.17g,", fraction);
  }
  out += "ks=";
  for (int32_t k : options.partial.ks) out += common::StrFormat("%d,", k);
  out += common::StrFormat("tol=%.17g restarts=%d ", options.partial.tolerance,
                           options.partial.restarts);
  AppendVsm(out, options.partial.vsm);
  AppendKMeans(out, options.partial.kmeans);

  out += "optimizer:ks=";
  for (int32_t k : options.optimizer.candidate_ks) {
    out += common::StrFormat("%d,", k);
  }
  // "threads=0" is a fixed literal: persisted cache keys and the golden
  // digests include it, so the signature text must keep it.
  out += common::StrFormat(
      "cv=%d restarts=%d model=%d threads=0 seed=%llu ",
      options.optimizer.cv_folds, options.optimizer.restarts,
      static_cast<int>(options.optimizer.model),
      static_cast<unsigned long long>(options.optimizer.seed));
  AppendKMeans(out, options.optimizer.kmeans);

  out += common::StrFormat(
      "patterns:s0=%.17g s1=%.17g s2=%.17g max=%zu;",
      options.pattern_mining.min_support_level0,
      options.pattern_mining.min_support_level1,
      options.pattern_mining.min_support_level2,
      options.pattern_mining.max_itemset_size);
  out += common::StrFormat("rules:conf=%.17g lift=%.17g;",
                           options.rules.min_confidence,
                           options.rules.min_lift);
  out += common::StrFormat("select=%zu raw=%d", options.max_selected_items,
                           options.store_raw_dataset ? 1 : 0);
  return out;
}

std::string DatasetFingerprint(const dataset::ExamLog& log,
                               const core::SessionOptions& options) {
  Fnv1a hasher;

  // (a) The §2.1 statistical descriptors.
  stats::MetaFeatures features = stats::ComputeMetaFeatures(log);
  for (double value : features.ToVector()) hasher.MixDouble(value);

  // (b) Dataset content: the record stream plus the dictionary names
  // (which surface verbatim in knowledge-item descriptions).
  hasher.MixInt(static_cast<int64_t>(log.num_patients()));
  for (const dataset::ExamRecord& record : log.records()) {
    hasher.MixInt(record.patient);
    hasher.MixInt(record.exam_type);
    hasher.MixInt(record.day);
  }
  for (size_t exam = 0; exam < log.num_exam_types(); ++exam) {
    hasher.MixString(log.dictionary().Name(static_cast<int32_t>(exam)));
  }

  // (c) Every report-affecting option.
  hasher.MixString(SessionOptionsSignature(options));

  return common::StrFormat("%016llx",
                           static_cast<unsigned long long>(hasher.digest()));
}

}  // namespace service
}  // namespace adahealth
