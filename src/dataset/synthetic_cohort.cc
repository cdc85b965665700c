#include "dataset/synthetic_cohort.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace adahealth {
namespace dataset {

namespace {

using common::InvalidArgumentError;
using common::Rng;
using common::StatusOr;

/// Static description of an exam group: name, parent category, and its
/// relative share of the exam-type vocabulary.
struct GroupSpec {
  const char* name;
  int32_t category;
  double vocabulary_share;
};

// Categories: 0 laboratory, 1 specialist, 2 imaging, 3 primary care.
constexpr const char* kCategoryNames[] = {"laboratory", "specialist_visit",
                                          "imaging", "primary_care"};

// Twenty clinically plausible exam groups for a diabetic cohort. Shares
// sum to 1 and control how many of the `num_exam_types` leaves land in
// each group (159 leaves reproduces the counts in DESIGN.md).
constexpr GroupSpec kGroupSpecs[] = {
    {"glycemic_control", 0, 0.050},   {"lipid_panel", 0, 0.050},
    {"renal_function", 0, 0.063},     {"liver_function", 0, 0.050},
    {"ophthalmology", 1, 0.063},      {"cardiology", 1, 0.075},
    {"neurology", 1, 0.050},          {"podiatry", 1, 0.038},
    {"vascular_studies", 2, 0.050},   {"radiology", 2, 0.075},
    {"urinalysis", 0, 0.050},         {"blood_count", 0, 0.050},
    {"endocrinology", 1, 0.050},      {"nutrition_counseling", 3, 0.038},
    {"general_checkup", 3, 0.050},    {"dermatology", 1, 0.038},
    {"infection_screen", 0, 0.044},   {"physiotherapy", 3, 0.038},
    {"dental_care", 3, 0.038},        {"oncology_screening", 1, 0.040},
};
constexpr size_t kNumGroupSpecs = std::size(kGroupSpecs);

/// Static description of a latent clinical profile.
struct ProfileSpec {
  const char* name;
  double mix_weight;       // Relative cohort share.
  double age_mean;         // Years.
  double age_stddev;       // Years.
  double activity_factor;  // Multiplier on records per patient.
  // Indices into kGroupSpecs of the signature (boosted) groups.
  std::vector<int32_t> signature_groups;
};

const std::vector<ProfileSpec>& ProfileSpecs() {
  static const std::vector<ProfileSpec> kSpecs{
      {"well_controlled", 0.22, 58, 13, 0.80, {0, 14}},
      {"cardiovascular", 0.15, 67, 10, 1.15, {5, 8, 1}},
      {"retinopathy", 0.12, 63, 11, 1.05, {4, 9}},
      {"nephropathy", 0.12, 66, 10, 1.10, {2, 10}},
      {"neuropathy", 0.10, 64, 11, 1.05, {6, 17, 7}},
      {"foot_complication", 0.08, 69, 9, 1.10, {7, 15, 8}},
      {"newly_diagnosed", 0.13, 44, 15, 0.85, {13, 12, 14}},
      {"multi_morbid", 0.08, 73, 8, 1.55, {5, 2, 4, 6}},
  };
  return kSpecs;
}

/// Distributes `total` leaves over the group specs proportionally to
/// vocabulary_share using the largest-remainder method; every used
/// group receives at least one leaf.
std::vector<int32_t> AllocateLeaves(int32_t total, size_t num_groups) {
  std::vector<int32_t> counts(num_groups, 1);
  int32_t remaining = total - static_cast<int32_t>(num_groups);
  double share_sum = 0.0;
  for (size_t g = 0; g < num_groups; ++g) share_sum += kGroupSpecs[g].vocabulary_share;
  std::vector<double> remainders(num_groups);
  int32_t assigned = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    double exact = remaining * kGroupSpecs[g].vocabulary_share / share_sum;
    int32_t floor_count = static_cast<int32_t>(std::floor(exact));
    counts[g] += floor_count;
    assigned += floor_count;
    remainders[g] = exact - floor_count;
  }
  // Hand out the leftover leaves to the largest remainders.
  std::vector<size_t> order(num_groups);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return remainders[a] > remainders[b];
  });
  for (int32_t i = 0; i < remaining - assigned; ++i) {
    ++counts[order[static_cast<size_t>(i) % num_groups]];
  }
  return counts;
}

}  // namespace

common::Status CheckSyntheticSize(int32_t patients, double mean_records,
                                  std::string_view field) {
  const double records = static_cast<double>(patients) * mean_records;
  if (records <= static_cast<double>(kMaxCohortRecords)) {
    return common::OkStatus();
  }
  return InvalidArgumentError(common::StrFormat(
      "field '%.*s' is out of range: %d patients x %g records each = %g "
      "records exceed the cap of %lld",
      static_cast<int>(field.size()), field.data(), patients, mean_records,
      records, static_cast<long long>(kMaxCohortRecords)));
}

StatusOr<Cohort> SyntheticCohortGenerator::Generate() const {
  const CohortConfig& cfg = config_;
  if (cfg.num_patients <= 0) {
    return InvalidArgumentError("num_patients must be positive");
  }
  if (cfg.num_exam_types < static_cast<int32_t>(4)) {
    return InvalidArgumentError("num_exam_types must be at least 4");
  }
  if (cfg.num_profiles <= 0 ||
      cfg.num_profiles > static_cast<int32_t>(ProfileSpecs().size())) {
    return InvalidArgumentError("num_profiles must be in [1, 8]");
  }
  if (cfg.mean_records_per_patient <= 0.0) {
    return InvalidArgumentError("mean_records_per_patient must be positive");
  }
  if (common::Status size = CheckSyntheticSize(cfg.num_patients,
                                               cfg.mean_records_per_patient,
                                               "mean_records_per_patient");
      !size.ok()) {
    return size;
  }
  if (cfg.zipf_exponent < 0.0) {
    return InvalidArgumentError("zipf_exponent must be non-negative");
  }
  if (cfg.profile_boost < 1.0) {
    return InvalidArgumentError("profile_boost must be >= 1");
  }
  if (cfg.num_days <= 0) {
    return InvalidArgumentError("num_days must be positive");
  }
  if (cfg.patient_heterogeneity < 0.0) {
    return InvalidArgumentError("patient_heterogeneity must be >= 0");
  }

  const size_t num_groups =
      std::min(kNumGroupSpecs, static_cast<size_t>(cfg.num_exam_types));
  const std::vector<int32_t> leaves_per_group =
      AllocateLeaves(cfg.num_exam_types, num_groups);

  // --- Dictionary and taxonomy -------------------------------------------
  ExamDictionary dictionary;
  std::vector<int32_t> leaf_group;
  std::vector<int32_t> leaf_rank_in_group;  // Popularity rank within group.
  std::vector<std::string> group_names;
  std::vector<int32_t> group_category;
  for (size_t g = 0; g < num_groups; ++g) {
    group_names.emplace_back(kGroupSpecs[g].name);
    group_category.push_back(kGroupSpecs[g].category);
  }
  std::vector<std::string> category_names(std::begin(kCategoryNames),
                                          std::end(kCategoryNames));
  for (size_t g = 0; g < num_groups; ++g) {
    for (int32_t j = 0; j < leaves_per_group[g]; ++j) {
      std::string name =
          std::string(kGroupSpecs[g].name) + "_" + std::to_string(j + 1);
      ExamTypeId id = dictionary.Intern(name);
      // invariant: generated names are unique, so Intern must assign
      // dense ids in insertion order (no user input involved).
      ADA_CHECK_EQ(static_cast<size_t>(id), leaf_group.size());
      leaf_group.push_back(static_cast<int32_t>(g));
      leaf_rank_in_group.push_back(j);
    }
  }
  auto taxonomy_or = Taxonomy::Build(leaf_group, group_names, group_category,
                                     category_names);
  if (!taxonomy_or.ok()) return taxonomy_or.status();

  // --- Zipf popularity ----------------------------------------------------
  // Global popularity rank: the j-th exam of every group is more popular
  // than every (j+1)-th exam, so the most frequent exams are the routine
  // ones that exist in each group (mirroring real checkup panels).
  const size_t num_exams = leaf_group.size();
  std::vector<size_t> order(num_exams);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (leaf_rank_in_group[a] != leaf_rank_in_group[b]) {
      return leaf_rank_in_group[a] < leaf_rank_in_group[b];
    }
    return leaf_group[a] < leaf_group[b];
  });
  std::vector<double> base_weight(num_exams, 0.0);
  for (size_t rank = 0; rank < num_exams; ++rank) {
    base_weight[order[rank]] =
        1.0 / std::pow(static_cast<double>(rank + 1), cfg.zipf_exponent);
  }

  // --- Per-profile sampling weights ----------------------------------------
  const auto& profiles = ProfileSpecs();
  const size_t num_profiles = static_cast<size_t>(cfg.num_profiles);
  std::vector<std::vector<double>> profile_weight(num_profiles);
  std::vector<double> mix_weights(num_profiles);
  for (size_t p = 0; p < num_profiles; ++p) {
    mix_weights[p] = profiles[p].mix_weight;
    std::vector<bool> boosted(num_groups, false);
    for (int32_t g : profiles[p].signature_groups) {
      if (static_cast<size_t>(g) < num_groups) {
        boosted[static_cast<size_t>(g)] = true;
      }
    }
    std::vector<double>& weights = profile_weight[p];
    weights.resize(num_exams);
    for (size_t e = 0; e < num_exams; ++e) {
      double w = base_weight[e];
      if (boosted[static_cast<size_t>(leaf_group[e])]) {
        // The boost grows with the within-group specialization rank:
        // the leading exam of each group is a routine panel everyone
        // gets (no profile signal), while "more specific diagnostic
        // tests" (paper §IV) carry the clinical-profile signal. This
        // places discriminative mass in mid-frequency exams, which is
        // what makes the paper's 85%-of-records subset necessary (the
        // 70% subset loses too much signal).
        double specialization =
            std::clamp((leaf_rank_in_group[e] - 1.0) / 3.0, 0.0, 1.0);
        w *= 1.0 + (cfg.profile_boost - 1.0) * specialization;
      }
      weights[e] = w;
    }
  }

  // Normalize activity so the overall expected records/patient matches
  // mean_records_per_patient regardless of the profile mix.
  double mix_total = 0.0;
  double weighted_activity = 0.0;
  for (size_t p = 0; p < num_profiles; ++p) {
    mix_total += mix_weights[p];
    weighted_activity += mix_weights[p] * profiles[p].activity_factor;
  }
  const double activity_scale = mix_total / weighted_activity;

  // --- Patients and records ------------------------------------------------
  Rng rng(cfg.seed);
  std::vector<Patient> patients(static_cast<size_t>(cfg.num_patients));
  std::vector<ExamRecord> records;
  records.reserve(static_cast<size_t>(cfg.num_patients *
                                      cfg.mean_records_per_patient * 1.1));
  std::vector<double> group_noise(num_groups, 1.0);
  std::vector<double> cdf(num_exams);
  for (int32_t i = 0; i < cfg.num_patients; ++i) {
    size_t profile = rng.Discrete(mix_weights);
    const ProfileSpec& spec = profiles[profile];
    Patient& patient = patients[static_cast<size_t>(i)];
    patient.id = i;
    patient.profile = static_cast<int32_t>(profile);
    double age = rng.Normal(spec.age_mean, spec.age_stddev);
    patient.age = static_cast<int32_t>(
        std::clamp(std::round(age), 4.0, 95.0));

    // Individual variability: mean-1 gamma multipliers per exam group
    // (variance = patient_heterogeneity) blur the latent profiles.
    if (cfg.patient_heterogeneity > 0.0) {
      double shape = 1.0 / cfg.patient_heterogeneity;
      for (double& noise : group_noise) {
        noise = rng.Gamma(shape, cfg.patient_heterogeneity);
      }
    }
    const std::vector<double>& weights = profile_weight[profile];
    double running = 0.0;
    for (size_t e = 0; e < num_exams; ++e) {
      running += weights[e] *
                 group_noise[static_cast<size_t>(leaf_group[e])];
      cdf[e] = running;
    }
    for (double& value : cdf) value /= running;

    double lambda = cfg.mean_records_per_patient * spec.activity_factor *
                    activity_scale;
    int64_t count = std::max<int64_t>(1, rng.Poisson(lambda));
    for (int64_t r = 0; r < count; ++r) {
      double u = rng.UniformDouble();
      size_t exam = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      if (exam >= num_exams) exam = num_exams - 1;
      ExamRecord record;
      record.patient = i;
      record.exam_type = static_cast<ExamTypeId>(exam);
      record.day = static_cast<int32_t>(rng.UniformInt(0, cfg.num_days - 1));
      records.push_back(record);
    }
  }

  Cohort cohort{ExamLog(std::move(patients), std::move(dictionary),
                        std::move(records)),
                std::move(taxonomy_or).value(),
                {}};
  for (size_t p = 0; p < num_profiles; ++p) {
    cohort.profile_names.emplace_back(profiles[p].name);
  }
  return cohort;
}

CohortConfig PaperScaleConfig() { return CohortConfig{}; }

CohortConfig TestScaleConfig() {
  CohortConfig config;
  config.num_patients = 400;
  config.num_exam_types = 48;
  config.mean_records_per_patient = 12.0;
  config.num_profiles = 4;
  config.seed = 42;
  return config;
}

}  // namespace dataset
}  // namespace adahealth
