#include "inputs.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "dataset/synthetic_cohort.h"

namespace servicebench {

namespace adh = adahealth;

namespace {

// One stratum per (patients, exam types, profiles) centre, spanning
// 800-2500 patients, every exam-type count and 4-8 profiles. Three
// strata keep a whole cycle short enough that each client completes
// two in a 20 s window, and make the median job the middle stratum's.
struct Stratum {
  int32_t patients;
  int32_t exam_types;
  int32_t profiles;
};
constexpr Stratum kColdStrata[] = {
    {900, 48, 4},
    {1650, 96, 6},
    {2400, 159, 8},
};
// Patients are drawn within +-kPatientJitter of the stratum centre.
constexpr int32_t kPatientJitter = 50;

Json Ints(std::initializer_list<int64_t> values) {
  Json::Array array;
  for (int64_t value : values) array.push_back(Json(value));
  return Json(std::move(array));
}

// The paper's session options (decision-tree assessor is the default).
Json PaperOptions() {
  Json::Object options;
  options["candidate_ks"] = Ints({6, 7, 8, 9, 10, 12, 15, 20});
  options["cv_folds"] = Json(int64_t{10});
  options["restarts"] = Json(int64_t{3});
  return Json(std::move(options));
}

// Light options for cached logs: the analysis happens once per log.
Json HotOptions() {
  Json::Object options;
  options["candidate_ks"] = Ints({4, 6, 8});
  options["cv_folds"] = Json(int64_t{3});
  options["restarts"] = Json(int64_t{1});
  return Json(std::move(options));
}

// Delta jobs: one per ingested generation, so they stay short.
Json StreamOptions() {
  Json::Object options;
  options["candidate_ks"] = Ints({4, 6, 8});
  options["cv_folds"] = Json(int64_t{5});
  options["restarts"] = Json(int64_t{2});
  return Json(std::move(options));
}

adh::dataset::Cohort Generate(int32_t patients, int32_t exam_types,
                              int32_t profiles, uint64_t seed) {
  adh::dataset::CohortConfig config = adh::dataset::TestScaleConfig();
  config.num_patients = patients;
  config.num_exam_types = exam_types;
  config.num_profiles = profiles;
  config.seed = seed;
  auto cohort = adh::dataset::SyntheticCohortGenerator(config).Generate();
  ADA_CHECK(cohort.ok());
  return std::move(cohort).value();
}

}  // namespace

size_t ColdStrata() { return std::size(kColdStrata); }

std::vector<ColdSpec> MakeColdSpecs(uint64_t seed, size_t pairs) {
  adh::common::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  constexpr size_t kStrata = std::size(kColdStrata);
  std::vector<ColdSpec> specs;
  specs.reserve(2 * pairs);
  std::vector<size_t> order(kStrata);
  while (specs.size() < 2 * pairs) {
    for (size_t i = 0; i < kStrata; ++i) order[i] = i;
    rng.Shuffle(order);
    for (size_t s : order) {
      if (specs.size() == 2 * pairs) break;
      const Stratum& stratum = kColdStrata[s];
      for (int member = 0; member < 2; ++member) {
        ColdSpec spec;
        spec.patients = stratum.patients + static_cast<int32_t>(rng.UniformInt(
                                               -kPatientJitter, kPatientJitter));
        spec.exam_types = stratum.exam_types;
        spec.profiles = stratum.profiles;
        spec.cohort_seed = rng.NextUint64() >> 1;
        spec.dataset_id = "cold-" + std::to_string(specs.size());
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

Json::Object ColdSubmitBody(const ColdSpec& spec) {
  Json::Object synthetic;
  synthetic["patients"] = Json(int64_t{spec.patients});
  synthetic["exam_types"] = Json(int64_t{spec.exam_types});
  synthetic["profiles"] = Json(int64_t{spec.profiles});
  synthetic["seed"] = Json(static_cast<int64_t>(spec.cohort_seed));
  Json::Object body;
  body["verb"] = "submit";
  body["synthetic"] = Json(std::move(synthetic));
  body["dataset_id"] = spec.dataset_id;
  body["use_taxonomy"] = true;
  body["options"] = PaperOptions();
  return body;
}

std::vector<HotLog> MakeHotSet(uint64_t seed, const std::string& prefix,
                               size_t count, int32_t min_patients,
                               int32_t max_patients, const HotLogFilter& keep) {
  adh::common::Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 2);
  const int32_t band =
      std::max<int32_t>(1, (max_patients - min_patients + 1) /
                               static_cast<int32_t>(count));
  std::vector<HotLog> logs;
  for (size_t i = 0; i < count; ++i) {
    const int32_t low = min_patients + band * static_cast<int32_t>(i);
    HotLog log;
    do {
      log.patients = static_cast<int32_t>(rng.UniformInt(low, low + band - 1));
      log.dataset_id = prefix + std::to_string(i);
      adh::dataset::Cohort cohort = Generate(
          log.patients, 48, static_cast<int32_t>(rng.UniformInt(4, 6)),
          rng.NextUint64() >> 1);
      log.body["verb"] = "submit";
      log.body["csv"] = cohort.log.ToCsv();
      log.body["dataset_id"] = log.dataset_id;
      log.body["options"] = HotOptions();
    } while (keep && !keep(i, log));
    logs.push_back(std::move(log));
  }
  return logs;
}

CohortStream MakeCohortStream(const std::string& cohort, uint64_t seed,
                              int32_t patients, double initial_fraction,
                              size_t batch_records) {
  adh::dataset::Cohort generated =
      Generate(patients, 48, 5, (seed * 0x94d049bb133111ebULL + 3) >> 1);
  const adh::dataset::ExamLog& log = generated.log;
  std::vector<RawExamRecord> records;
  records.reserve(log.num_records());
  for (const auto& record : log.records()) {
    RawExamRecord raw;
    raw.patient = record.patient;
    raw.exam_type = log.dictionary().Name(record.exam_type);
    raw.day = record.day;
    records.push_back(std::move(raw));
  }
  // Arrival order: by day, the order a growing exam log fills in.
  std::stable_sort(records.begin(), records.end(),
                   [](const RawExamRecord& a, const RawExamRecord& b) {
                     return std::tie(a.day, a.patient) <
                            std::tie(b.day, b.patient);
                   });
  CohortStream stream;
  stream.cohort = cohort;
  const size_t initial =
      static_cast<size_t>(initial_fraction * static_cast<double>(records.size()));
  stream.initial.assign(records.begin(), records.begin() + initial);
  for (size_t begin = initial; begin < records.size(); begin += batch_records) {
    const size_t end = std::min(records.size(), begin + batch_records);
    stream.batches.emplace_back(records.begin() + begin, records.begin() + end);
  }
  return stream;
}

Json::Object IngestBody(const std::string& cohort,
                        const std::vector<RawExamRecord>& records,
                        int64_t expected_generation) {
  Json::Array rows;
  rows.reserve(records.size());
  for (const RawExamRecord& record : records) {
    Json::Object row;
    row["patient"] = Json(static_cast<int64_t>(record.patient));
    row["exam_type"] = record.exam_type;
    row["day"] = Json(static_cast<int64_t>(record.day));
    rows.push_back(Json(std::move(row)));
  }
  Json::Object body;
  body["verb"] = "ingest";
  body["cohort"] = cohort;
  body["records"] = Json(std::move(rows));
  body["expected_generation"] = Json(expected_generation);
  return body;
}

Json::Object CohortSubmitBody(const std::string& cohort) {
  Json::Object body;
  body["verb"] = "submit";
  body["cohort"] = cohort;
  body["options"] = StreamOptions();
  return body;
}

Json::Object ResultBody(int64_t job_id) {
  Json::Object body;
  body["verb"] = "result";
  body["job_id"] = Json(job_id);
  body["wait_millis"] = Json(60000.0);
  return body;
}

Json::Object StatusBody(int64_t job_id) {
  Json::Object body;
  body["verb"] = "status";
  body["job_id"] = Json(job_id);
  return body;
}

}  // namespace servicebench
