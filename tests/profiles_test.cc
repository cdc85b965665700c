#include "cluster/profiles.h"

#include <string>

#include <gtest/gtest.h>
#include "cluster/kmeans.h"
#include "common/string_util.h"
#include "dataset/synthetic_cohort.h"
#include "transform/vsm.h"

namespace adahealth {
namespace cluster {
namespace {

// One-line rendering, e.g. "group 2: 456 patients, cohesion 0.31,
// distinctive: fundus_exam (x4.1), retina_scan (x3.2)".
std::string FormatClusterProfile(const ClusterProfile& profile,
                                 const dataset::ExamLog& log) {
  std::string out = common::StrFormat(
      "group %d: %lld patients, cohesion %.3f, distinctive:",
      profile.cluster, static_cast<long long>(profile.size),
      profile.cohesion);
  if (profile.top_by_lift.empty()) {
    out += " (none)";
    return out;
  }
  for (size_t i = 0; i < profile.top_by_lift.size(); ++i) {
    const SignatureExam& exam = profile.top_by_lift[i];
    out += common::StrFormat("%s %s (x%.1f)", i > 0 ? "," : "",
                             log.dictionary().Name(exam.exam).c_str(),
                             exam.lift);
  }
  return out;
}

struct Fixture {
  dataset::Cohort cohort;
  transform::Matrix vsm;
  Clustering clustering;
};

Fixture MakeFixture() {
  dataset::CohortConfig config = dataset::TestScaleConfig();
  config.num_exam_types = 159;
  config.patient_heterogeneity = 0.1;
  auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
  EXPECT_TRUE(cohort.ok());
  Fixture fixture{std::move(cohort).value(), {}, {}};
  fixture.vsm = transform::BuildVsm(
      fixture.cohort.log, {transform::VsmWeighting::kTfIdf,
                           transform::VsmNormalization::kL2});
  KMeansOptions options;
  options.k = 4;
  options.seed = 3;
  auto clustering = RunKMeans(fixture.vsm, options);
  EXPECT_TRUE(clustering.ok());
  fixture.clustering = std::move(clustering).value();
  return fixture;
}

TEST(ClusterProfilesTest, OneProfilePerCluster) {
  Fixture fixture = MakeFixture();
  auto profiles = BuildClusterProfiles(fixture.cohort.log, fixture.vsm,
                                       fixture.clustering);
  ASSERT_TRUE(profiles.ok());
  ASSERT_EQ(profiles->size(), 4u);
  int64_t total = 0;
  for (const ClusterProfile& profile : profiles.value()) {
    total += profile.size;
    EXPECT_GT(profile.size, 0);
    EXPECT_GT(profile.cohesion, 0.0);
    EXPECT_LE(profile.cohesion, 1.0 + 1e-9);
    EXPECT_FALSE(profile.top_by_weight.empty());
    EXPECT_FALSE(profile.top_by_lift.empty());
  }
  EXPECT_EQ(total, static_cast<int64_t>(fixture.vsm.rows()));
}

TEST(ClusterProfilesTest, WeightRankingIsDescending) {
  Fixture fixture = MakeFixture();
  auto profiles = BuildClusterProfiles(fixture.cohort.log, fixture.vsm,
                                       fixture.clustering);
  ASSERT_TRUE(profiles.ok());
  for (const ClusterProfile& profile : profiles.value()) {
    for (size_t i = 1; i < profile.top_by_weight.size(); ++i) {
      EXPECT_GE(profile.top_by_weight[i - 1].cluster_mean,
                profile.top_by_weight[i].cluster_mean);
    }
    for (size_t i = 1; i < profile.top_by_lift.size(); ++i) {
      EXPECT_GE(profile.top_by_lift[i - 1].lift,
                profile.top_by_lift[i].lift);
    }
  }
}

TEST(ClusterProfilesTest, LiftIsConsistentWithMeans) {
  Fixture fixture = MakeFixture();
  auto profiles = BuildClusterProfiles(fixture.cohort.log, fixture.vsm,
                                       fixture.clustering);
  ASSERT_TRUE(profiles.ok());
  for (const ClusterProfile& profile : profiles.value()) {
    for (const SignatureExam& exam : profile.top_by_lift) {
      ASSERT_GT(exam.global_mean, 0.0);
      EXPECT_NEAR(exam.lift, exam.cluster_mean / exam.global_mean, 1e-9);
    }
  }
}

TEST(ClusterProfilesTest, DistinctiveExamsHaveHighLift) {
  // At least one cluster must over-represent some exam by 1.5x; that is
  // the whole point of profile-structured data.
  Fixture fixture = MakeFixture();
  auto profiles = BuildClusterProfiles(fixture.cohort.log, fixture.vsm,
                                       fixture.clustering);
  ASSERT_TRUE(profiles.ok());
  double max_lift = 0.0;
  for (const ClusterProfile& profile : profiles.value()) {
    for (const SignatureExam& exam : profile.top_by_lift) {
      max_lift = std::max(max_lift, exam.lift);
    }
  }
  EXPECT_GT(max_lift, 1.5);
}

TEST(ClusterProfilesTest, TopKRespected) {
  Fixture fixture = MakeFixture();
  auto profiles = BuildClusterProfiles(fixture.cohort.log, fixture.vsm,
                                       fixture.clustering, 2);
  ASSERT_TRUE(profiles.ok());
  for (const ClusterProfile& profile : profiles.value()) {
    EXPECT_LE(profile.top_by_weight.size(), 2u);
    EXPECT_LE(profile.top_by_lift.size(), 2u);
  }
}

TEST(ClusterProfilesTest, FormatMentionsExamNames) {
  Fixture fixture = MakeFixture();
  auto profiles = BuildClusterProfiles(fixture.cohort.log, fixture.vsm,
                                       fixture.clustering);
  ASSERT_TRUE(profiles.ok());
  const ClusterProfile& profile = profiles->front();
  std::string text = FormatClusterProfile(profile, fixture.cohort.log);
  EXPECT_NE(text.find("group 0"), std::string::npos);
  EXPECT_NE(
      text.find(fixture.cohort.log.dictionary().Name(
          profile.top_by_lift.front().exam)),
      std::string::npos);
}

TEST(ClusterProfilesTest, RejectsMismatchedShapes) {
  Fixture fixture = MakeFixture();
  transform::Matrix wrong_rows(3, fixture.vsm.cols());
  EXPECT_FALSE(BuildClusterProfiles(fixture.cohort.log, wrong_rows,
                                    fixture.clustering)
                   .ok());
  transform::Matrix wrong_cols(fixture.vsm.rows(), 3);
  EXPECT_FALSE(BuildClusterProfiles(fixture.cohort.log, wrong_cols,
                                    fixture.clustering)
                   .ok());
}

}  // namespace
}  // namespace cluster
}  // namespace adahealth
