// Tests of the benchmark's own logic: the tail rule, span self time,
// failure accounting and the output checks (each must fire on a
// deliberately corrupted reply). Build and run with
// `python3 servicebench/run.py --self-test`.
#include <algorithm>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checks.h"
#include "inputs.h"
#include "ledger.h"
#include "service/protocol.h"
#include "stats.h"
#include "trace.h"

namespace servicebench {
namespace {

namespace adh = adahealth;
using adh::common::StatusCode;

std::vector<double> OneTo(size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(TailRuleTest, HighestPercentileWithTenSamplesBeyond) {
  Tail tail = TailOf(OneTo(100));  // p95 leaves 5 beyond, p90 leaves 10.
  EXPECT_TRUE(tail.supported);
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.value, 90.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.samples, 100u);

  tail = TailOf(OneTo(1000));  // p99.9 leaves 1, p99 leaves 10.
  EXPECT_EQ(tail.percentile, 99.0);
  EXPECT_EQ(tail.value, 990.0);

  tail = TailOf(OneTo(109));  // p95: rank 104, 5 beyond; p90: rank 99.
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(TailRuleTest, SmallSamplesFallBackToAnUnsupportedMedian) {
  Tail tail = TailOf(OneTo(20));  // The median leaves exactly 10.
  EXPECT_TRUE(tail.supported);
  EXPECT_EQ(tail.percentile, 50.0);
  EXPECT_EQ(tail.value, 10.0);

  tail = TailOf(OneTo(19));
  EXPECT_FALSE(tail.supported);
  EXPECT_EQ(tail.percentile, 50.0);
  EXPECT_EQ(tail.beyond, 9u);

  tail = TailOf({});
  EXPECT_FALSE(tail.supported);
  EXPECT_EQ(tail.samples, 0u);
}

TEST(TailRuleTest, UnsortedInputAndMedian) {
  std::vector<double> values = OneTo(40);
  std::reverse(values.begin(), values.end());
  EXPECT_EQ(TailOf(values).percentile, 75.0);  // p90 leaves 4 beyond.
  EXPECT_EQ(TailOf(values).value, 30.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

Span MakeSpan(int64_t id, int64_t parent, const char* layer, double start,
              double end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = layer;
  span.layer = layer;
  span.start = start;
  span.end = end;
  return span;
}

TEST(SelfTimeTest, OverlappingChildrenAreCountedOnce) {
  const Span parent = MakeSpan(1, 0, "client", 0.0, 10.0);
  // [1,4] and [3,6] overlap; [8,12] runs past the parent's end.
  const std::vector<Span> children = {MakeSpan(2, 1, "service", 1.0, 4.0),
                                      MakeSpan(3, 1, "service", 3.0, 6.0),
                                      MakeSpan(4, 1, "service", 8.0, 12.0)};
  EXPECT_DOUBLE_EQ(SelfSeconds(parent, children), 3.0);
  EXPECT_DOUBLE_EQ(SelfSeconds(parent, {}), 10.0);
  EXPECT_DOUBLE_EQ(
      SelfSeconds(parent, {MakeSpan(5, 1, "service", -1.0, 11.0)}), 0.0);
}

TEST(SelfTimeTest, ByLayerSumsSelfTimeOfEverySpan) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "client", 0.0, 10.0), MakeSpan(2, 1, "service", 1.0, 4.0),
      MakeSpan(3, 1, "service", 3.0, 6.0), MakeSpan(4, 3, "core", 3.5, 5.5)};
  const auto by_layer = SelfSecondsByLayer(spans);
  EXPECT_DOUBLE_EQ(by_layer.at("client"), 5.0);
  EXPECT_DOUBLE_EQ(by_layer.at("service"), 3.0 + 1.0);
  EXPECT_DOUBLE_EQ(by_layer.at("core"), 2.0);
}

TEST(SelfTimeTest, TracerRecordsParentsAndDisabledTracerNothing) {
  Tracer tracer(true);
  {
    ScopedSpan outer(&tracer, "job", "client", 0, 7);
    ScopedSpan inner(&tracer, "verb.submit", "service", outer.id(), 7);
  }
  const std::vector<Span> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].job, 7);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_GE(spans[0].end, spans[1].end);

  Tracer off(false);
  { ScopedSpan span(&off, "job", "client"); }
  EXPECT_TRUE(off.Spans().empty());
}

TEST(LedgerTest, RefusedAndExpiredOperationsCountAsFailed) {
  Ledger ledger;
  ledger.Record(Classify(Json(Json::Object{{"state", Json("done")}})));
  ledger.Record(Classify(adh::common::StatusOr<Json>(
      adh::common::Status(StatusCode::kResourceExhausted, "queue full"))));
  ledger.Record(Classify(Json(Json::Object{{"state", Json("expired")}})));
  ledger.Record(Classify(adh::common::StatusOr<Json>(
      adh::common::Status(StatusCode::kDeadlineExceeded, "wait cap"))));
  ledger.Record(Classify(adh::common::StatusOr<Json>(
      adh::common::Status(StatusCode::kFailedPrecondition, "generation"))));
  ledger.Record(Classify(adh::common::StatusOr<Json>(
      adh::common::Status(StatusCode::kUnavailable, "shard down"))));
  ledger.Record(Classify(Json(Json::Object{{"state", Json("failed")}})));
  ledger.Record(Classify(Json(Json::Object{{"generation", Json(int64_t{3})}})));

  EXPECT_EQ(ledger.attempted(), 8);
  EXPECT_EQ(ledger.failed(), 6);
  EXPECT_EQ(ledger.count(Outcome::kShed), 1);
  EXPECT_EQ(ledger.count(Outcome::kExpired), 2);
  EXPECT_EQ(ledger.count(Outcome::kGuardRejected), 1);
  EXPECT_EQ(ledger.count(Outcome::kUnavailable), 1);
  EXPECT_EQ(ledger.count(Outcome::kError), 1);
  EXPECT_DOUBLE_EQ(ledger.failed_frac(), 6.0 / 8.0);

  Ledger merged;
  merged.Merge(ledger);
  merged.Merge(ledger);
  EXPECT_EQ(merged.attempted(), 16);
  EXPECT_DOUBLE_EQ(Ledger().failed_frac(), 0.0);
}

Json::Object TinyCsvBody() {
  std::vector<HotLog> logs = MakeHotSet(5, "tiny-", 1, 60, 60);
  return logs[0].body;
}

TEST(ChecksTest, ReportCheckFiresOnACorruptedReport) {
  auto request = adh::service::BuildJobRequest(Json(TinyCsvBody()));
  ASSERT_TRUE(request.ok());
  auto direct = RunDirect(*request);
  ASSERT_TRUE(direct.ok());
  // Deterministic: a second direct run serves the same bytes.
  auto again = RunDirect(*request);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(CheckReport(again->report, *direct, "tiny").ok());

  std::string corrupted = direct->report;
  corrupted[corrupted.size() / 2] ^= 1;
  EXPECT_FALSE(CheckReport(corrupted, *direct, "tiny").ok());
  EXPECT_FALSE(CheckReport(direct->report + "\n", *direct, "tiny").ok());
}

TEST(ChecksTest, ResubmitCheckFiresOnMissDigestAndEviction) {
  const std::vector<uint64_t> expected = {Digest("report a"), Digest("report b")};
  std::vector<ResubmitRecord> records = {{0, true, Digest("report a")},
                                         {1, true, Digest("report b")}};
  EXPECT_TRUE(CheckResubmits(records, expected, 0).ok());
  EXPECT_FALSE(CheckResubmits(records, expected, 1).ok());

  records[1].cache_hit = false;
  EXPECT_FALSE(CheckResubmits(records, expected, 0).ok());
  records[1].cache_hit = true;
  records[1].digest = Digest("report b, corrupted");
  EXPECT_FALSE(CheckResubmits(records, expected, 0).ok());
  records[1] = {5, true, Digest("report b")};  // Unknown log.
  EXPECT_FALSE(CheckResubmits(records, expected, 0).ok());
}

TEST(ChecksTest, StreamStepCheckFiresOnGenerationCountAndFingerprint) {
  StreamStep step;
  step.cohort = "icu";
  step.expected_generation = 2;
  step.expected_total = 96;
  step.generation = 2;
  step.total_records = 96;
  step.analysed = true;
  step.submit_fingerprint = "icu@2/0123456789abcdef";
  step.result_fingerprint = "icu@2/0123456789abcdef";
  EXPECT_TRUE(CheckStreamStep(step).ok());

  StreamStep wrong = step;
  wrong.generation = 3;
  EXPECT_FALSE(CheckStreamStep(wrong).ok());
  wrong = step;
  wrong.total_records = 95;
  EXPECT_FALSE(CheckStreamStep(wrong).ok());
  wrong = step;
  wrong.result_fingerprint = "icu@1/0123456789abcdef";
  EXPECT_FALSE(CheckStreamStep(wrong).ok());
  wrong = step;
  wrong.submit_fingerprint = "icu@22/0123456789abcdef";
  EXPECT_FALSE(CheckStreamStep(wrong).ok());

  StreamStep write_only = step;  // Not analysed: no fingerprints.
  write_only.analysed = false;
  write_only.submit_fingerprint.clear();
  write_only.result_fingerprint.clear();
  EXPECT_TRUE(CheckStreamStep(write_only).ok());
}

TEST(ChecksTest, MirrorCheckFiresOnACorruptedDeltaReport) {
  const std::filesystem::path directory =
      std::filesystem::temp_directory_path() / "servicebench_mirror_test";
  std::filesystem::remove_all(directory);
  const CohortStream stream = MakeCohortStream("mirror", 9, 80, 0.5, 40);
  auto mirror = RunMirror(stream, 3, CohortSubmitBody(stream.cohort), 2,
                          directory.string(), nullptr);
  std::filesystem::remove_all(directory);
  ASSERT_TRUE(mirror.ok()) << mirror.status().ToString();
  ASSERT_EQ(mirror->reports.size(), 3u);
  EXPECT_EQ(mirror->sample_job.cohort_generation, 2);
  EXPECT_TRUE(CheckMirror(mirror->reports, mirror->reports).ok());

  std::vector<std::string> served = mirror->reports;
  served[2][served[2].size() / 3] ^= 1;
  EXPECT_FALSE(CheckMirror(served, mirror->reports).ok());
  served = mirror->reports;
  served.pop_back();
  EXPECT_FALSE(CheckMirror(served, mirror->reports).ok());
}

}  // namespace
}  // namespace servicebench
