// Streaming-cohort coverage: batch-atomic ingestion whose reported
// counts match a full §2.1 recompute over the snapshot, crash-safe
// persistence with torn-append salvage, the warm-start drift gate, the
// scheduler's versioned fingerprints with stale-generation supersede,
// cache supersede-exactly-once, the server's `ingest` verb — and the
// subsystem's central invariant: a delta (warm-started) re-analysis
// renders a byte-identical report to a cold run on the same data.
#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "common/check.h"
#include "common/csv.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/report.h"
#include "core/session.h"
#include "dataset/exam_log.h"
#include "dataset/synthetic_cohort.h"
#include "kdb/database.h"
#include "service/client.h"
#include "service/cohort_store.h"
#include "service/fingerprint.h"
#include "service/result_cache.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "stats/meta_features.h"
#include "transform/matrix.h"

namespace adahealth {
namespace {

using common::Json;
using common::StatusCode;

std::string MakeScratchDir(const std::string& name) {
  std::string path = testing::TempDir() + "/cohort_" + name;
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
  ::mkdir(path.c_str(), 0755);
  return path;
}

dataset::RawExamRecord Raw(int32_t patient, std::string exam_type,
                           int32_t day) {
  dataset::RawExamRecord row;
  row.patient = patient;
  row.exam_type = std::move(exam_type);
  row.day = day;
  return row;
}

/// The synthetic cohort's record table as an arrival-order raw batch.
std::vector<dataset::RawExamRecord> ToRaw(const dataset::ExamLog& log) {
  std::vector<dataset::RawExamRecord> rows;
  rows.reserve(log.num_records());
  for (const dataset::ExamRecord& record : log.records()) {
    rows.push_back(
        Raw(record.patient, log.dictionary().Name(record.exam_type),
            record.day));
  }
  return rows;
}

dataset::ExamLog MakeSyntheticLog(uint64_t seed, int32_t patients = 120) {
  dataset::CohortConfig config = dataset::TestScaleConfig();
  config.num_patients = patients;
  config.num_exam_types = 24;
  config.num_profiles = 3;
  config.seed = seed;
  auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
  ADA_CHECK(cohort.ok());
  return std::move(cohort).value().log;
}

core::SessionOptions FastOptions(const std::string& dataset_id) {
  core::SessionOptions options;
  options.dataset_id = dataset_id;
  options.transform.sample_fraction = 0.4;
  options.transform.proxy_k = 4;
  options.partial.fractions = {0.5, 1.0};
  options.partial.ks = {3};
  options.partial.kmeans.max_iterations = 20;
  options.optimizer.candidate_ks = {3, 4};
  options.optimizer.cv_folds = 4;
  options.optimizer.restarts = 1;
  return options;
}

/// A successful analysis outcome with just the fields
/// OnAnalysisCommitted persists: one winning candidate of `k`
/// centroids over `dims` VSM columns.
core::SessionResult FakeSuccess(int32_t k, size_t dims, double fill) {
  core::SessionResult result;
  core::CandidateEvaluation candidate;
  candidate.k = k;
  candidate.clustering.k = k;
  candidate.clustering.centroids = transform::Matrix(
      static_cast<size_t>(k), dims, fill);
  result.optimizer.candidates.push_back(std::move(candidate));
  result.optimizer.best_index = 0;
  for (size_t i = 0; i < dims; ++i) {
    result.mining_exam_types.push_back(static_cast<int32_t>(i));
  }
  result.summary = "fake run";
  return result;
}

// ---------------------------------------------------------------------
// Ingestion semantics.

TEST(CohortStoreTest, IngestAccumulatesLikeDirectAppend) {
  service::CohortStore store(service::CohortStoreOptions{});

  std::vector<dataset::RawExamRecord> batch1 = {
      Raw(0, "blood_panel", 1), Raw(1, "xray_chest", 2),
      Raw(0, "blood_panel", 6)};
  std::vector<dataset::RawExamRecord> batch2 = {Raw(2, "mri_head", 9),
                                                Raw(1, "blood_panel", 11)};

  auto first = store.Ingest("ward", batch1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().generation, 1);
  EXPECT_EQ(first.value().batch_records, 3);
  EXPECT_EQ(first.value().total_records, 3);
  EXPECT_EQ(first.value().patients, 2);

  auto second = store.Ingest("ward", batch2);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().generation, 2);
  EXPECT_EQ(second.value().batch_records, 2);
  EXPECT_EQ(second.value().total_records, 5);
  EXPECT_EQ(second.value().patients, 3);

  // The streaming-ingestion invariant: the accumulated snapshot equals
  // one direct ExamLog::Append over the concatenated batches.
  dataset::ExamLog direct;
  ASSERT_TRUE(direct.Append(batch1).ok());
  ASSERT_TRUE(direct.Append(batch2).ok());
  auto snapshot = store.Snapshot("ward");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().ToCsv(), direct.ToCsv());

  service::CohortStoreStats stats = store.stats();
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.records, 5);
  EXPECT_EQ(stats.cohorts, 1);
  EXPECT_EQ(stats.generations, 2);
}

TEST(CohortStoreTest, RejectsInvalidNamesBatchesAndRecords) {
  service::CohortStore store(service::CohortStoreOptions{});
  std::vector<dataset::RawExamRecord> good = {Raw(0, "ecg", 1)};

  for (const std::string& name :
       {std::string(""), std::string("a/b"), std::string("ward 3"),
        std::string("dot.dot"), std::string(65, 'a')}) {
    EXPECT_EQ(store.Ingest(name, good).status().code(),
              StatusCode::kInvalidArgument)
        << "name: '" << name << "'";
  }

  EXPECT_EQ(store.Ingest("ward", {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Ingest("ward", {Raw(-1, "ecg", 1)}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Ingest("ward", {Raw(0, "", 1)}).status().code(),
            StatusCode::kInvalidArgument);

  // A rejected batch never materializes the cohort.
  EXPECT_EQ(store.stats().cohorts, 0);
  EXPECT_EQ(store.Snapshot("ward").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.BuildCohortJob("ward").status().code(),
            StatusCode::kNotFound);
}

TEST(CohortStoreTest, CohortNameValidation) {
  EXPECT_TRUE(service::IsValidCohortName("ward-3_B"));
  EXPECT_TRUE(service::IsValidCohortName(std::string(64, 'x')));
  EXPECT_FALSE(service::IsValidCohortName(""));
  EXPECT_FALSE(service::IsValidCohortName(std::string(65, 'x')));
  EXPECT_FALSE(service::IsValidCohortName("../escape"));
  EXPECT_FALSE(service::IsValidCohortName("white space"));
}

// ---------------------------------------------------------------------
// Ingest counts.

TEST(CohortStoreTest, IncrementalDescriptorsMatchFullRecompute) {
  service::CohortStore store(service::CohortStoreOptions{});
  std::vector<dataset::RawExamRecord> rows = ToRaw(MakeSyntheticLog(17, 80));
  ASSERT_GT(rows.size(), 8u);

  // Four uneven batches; after each the counts the ingest reports must
  // match stats::ComputeMetaFeatures run from scratch on the
  // accumulated snapshot.
  const size_t cuts[] = {rows.size() / 7, rows.size() / 3,
                         (rows.size() * 3) / 4, rows.size()};
  size_t start = 0;
  int64_t generation = 0;
  for (size_t cut : cuts) {
    std::vector<dataset::RawExamRecord> batch(rows.begin() + start,
                                              rows.begin() + cut);
    start = cut;
    auto ingested = store.Ingest("icu", batch);
    ASSERT_TRUE(ingested.ok());
    ++generation;

    auto snapshot = store.Snapshot("icu");
    ASSERT_TRUE(snapshot.ok());
    stats::MetaFeatures full = stats::ComputeMetaFeatures(snapshot.value());

    EXPECT_EQ(ingested->generation, generation);
    EXPECT_EQ(ingested->batch_records, static_cast<int64_t>(batch.size()));
    EXPECT_EQ(ingested->total_records, full.num_records);
    EXPECT_EQ(ingested->patients, full.num_patients);
  }
}

// ---------------------------------------------------------------------
// Persistence.

TEST(CohortStoreTest, PersistsAndReloadsAcrossStores) {
  std::string dir = MakeScratchDir("reload");
  service::CohortStoreOptions options;
  options.directory = dir;

  std::string csv;
  {
    service::CohortStore store(options);
    ASSERT_TRUE(
        store.Ingest("ward", {Raw(0, "ecg", 1), Raw(1, "xray", 2)}).ok());
    ASSERT_TRUE(store.Ingest("ward", {Raw(2, "ecg", 3)}).ok());
    // A committed analysis at the current generation becomes durable
    // warm state.
    store.OnAnalysisCommitted("ward", 2, 3, FakeSuccess(3, 5, 0.25));
    csv = store.Snapshot("ward").value().ToCsv();
  }

  service::CohortStore reloaded(options);
  EXPECT_EQ(reloaded.stats().cohorts, 1);
  EXPECT_EQ(reloaded.stats().generations, 2);
  auto snapshot = reloaded.Snapshot("ward");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().ToCsv(), csv);

  // The warm-start state survived the reload.
  auto job = reloaded.BuildCohortJob("ward");
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job.value().cohort, "ward");
  EXPECT_EQ(job.value().cohort_generation, 2);
  EXPECT_EQ(job.value().options.warm.centroids,
            transform::Matrix(3, 5, 0.25));
  EXPECT_EQ(job.value().options.warm.best_k, 3);
  EXPECT_EQ(job.value().options.warm.exam_types.size(), 5u);
}

std::string LogPath(const std::string& dir) {
  return dir + "/" + service::kStoreLogFile;
}

std::string ReadLog(const std::string& dir) {
  auto text = common::ReadFileToString(LogPath(dir));
  ADA_CHECK(text.ok());
  return std::move(text).value();
}

/// Makes the store log in `dir` hold exactly `bytes`. It rewrites the
/// file in place instead of unlinking it: freeing a synced file's
/// blocks costs tens of milliseconds on a disk mounted with `discard`,
/// and the crash-window test does this hundreds of times.
void WriteLog(const std::string& dir, std::string_view bytes) {
  const std::string path = LogPath(dir);
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) file = std::fopen(path.c_str(), "wb");
  ADA_CHECK(file != nullptr);
  ADA_CHECK_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
  std::filesystem::resize_file(path, bytes.size());
}

/// The committed prefix of a log: every byte up to its last newline.
std::string Committed(const std::string& log) {
  const size_t newline = log.rfind('\n');
  return newline == std::string::npos ? std::string()
                                      : log.substr(0, newline + 1);
}

TEST(CohortStoreTest, TornAppendResidueIsInvisibleAndTruncated) {
  std::string dir = MakeScratchDir("torn");
  service::CohortStoreOptions options;
  options.directory = dir;

  std::vector<dataset::RawExamRecord> batch1 = {Raw(0, "ecg", 1),
                                                Raw(1, "xray", 4)};
  std::vector<dataset::RawExamRecord> batch2 = {Raw(2, "mri", 7)};
  std::string committed_csv;
  {
    service::CohortStore store(options);
    ASSERT_TRUE(store.Ingest("ward", batch1).ok());
    committed_csv = store.Snapshot("ward").value().ToCsv();
  }

  // Simulate a crash mid-append: an entry's body hit the store log but
  // its committing newline never did.
  const std::string residue =
      "0123456789abcdef {\"cohort\":\"ward\",\"generation\":2,"
      "\"kind\":\"ingest\",\"records\":[[999,\"torn-half-a-reco";
  WriteLog(dir, ReadLog(dir) + residue);

  // The replay stops at the last newline: generation 1 stays fully
  // readable, the residue is never parsed.
  service::CohortStore salvaged(options);
  ASSERT_TRUE(salvaged.status().ok()) << salvaged.status().ToString();
  EXPECT_EQ(salvaged.stats().cohorts, 1);
  auto snapshot = salvaged.Snapshot("ward");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().ToCsv(), committed_csv);
  EXPECT_EQ(salvaged.stats().generations, 1);

  // The next append is written at the committed end, over the residue,
  // so the log's committed entries stay parseable end to end.
  ASSERT_TRUE(salvaged.Ingest("ward", batch2).ok());
  const std::string log = ReadLog(dir);
  EXPECT_EQ(std::count(log.begin(), log.end(), '\n'), 2);
  EXPECT_EQ(Committed(log).find("torn-half"), std::string::npos);

  dataset::ExamLog direct;
  ASSERT_TRUE(direct.Append(batch1).ok());
  ASSERT_TRUE(direct.Append(batch2).ok());
  service::CohortStore reloaded(options);
  auto final_snapshot = reloaded.Snapshot("ward");
  ASSERT_TRUE(final_snapshot.ok());
  EXPECT_EQ(final_snapshot.value().ToCsv(), direct.ToCsv());
  EXPECT_EQ(reloaded.stats().generations, 2);
}

TEST(CohortStoreTest, FirstBatchCrashResidueIsClearedNotAppendedAfter) {
  // The first-batch crash window: the store log holds only the body of
  // a first entry whose newline never hit disk. The replay finds no
  // committed entry, so the store starts empty, and the first append
  // must land at offset 0, over the residue, not after it: otherwise
  // the ghost body would become a corrupt committed line.
  std::string dir = MakeScratchDir("first_batch_crash");
  service::CohortStoreOptions options;
  options.directory = dir;
  {
    std::string ghost_dir = MakeScratchDir("first_batch_ghost");
    service::CohortStore ghost(service::CohortStoreOptions{ghost_dir});
    ASSERT_TRUE(ghost
                    .Ingest("ward", {Raw(7, "ghost_exam_with_a_long_name", 3),
                                     Raw(11, "another_ghost_exam", 4),
                                     Raw(12, "and_one_more_ghost", 5)})
                    .ok());
    std::string line = ReadLog(ghost_dir);
    line.pop_back();  // The newline that never made it.
    WriteLog(dir, line);
  }

  service::CohortStore store(options);
  ASSERT_TRUE(store.status().ok()) << store.status().ToString();
  EXPECT_EQ(store.stats().cohorts, 0);  // No committed entry, no cohort.

  std::vector<dataset::RawExamRecord> batch = {Raw(0, "ecg", 1),
                                               Raw(1, "xray", 2)};
  auto first = store.Ingest("ward", batch);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->generation, 1);

  // In memory and across a reload, the cohort holds exactly the
  // committed batch: no ghost records, no parse failure.
  dataset::ExamLog direct;
  ASSERT_TRUE(direct.Append(batch).ok());
  EXPECT_EQ(store.Snapshot("ward").value().ToCsv(), direct.ToCsv());
  service::CohortStore reloaded(options);
  ASSERT_TRUE(reloaded.status().ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded.stats().cohorts, 1);
  EXPECT_EQ(reloaded.Snapshot("ward").value().ToCsv(), direct.ToCsv());
  EXPECT_EQ(reloaded.Snapshot("ward")->num_records(), 2u);
}

/// One step of a generated store history: an ingest batch, or a
/// committed analysis that installs warm state.
struct HistoryStep {
  std::string cohort;
  std::vector<dataset::RawExamRecord> batch;  // Empty for a warm step.
  int64_t generation = 0;
  int64_t analyzed_records = 0;
  core::SessionResult analysis;
};

void Replay(service::CohortStore& store,
            const std::vector<HistoryStep>& history, size_t steps) {
  for (size_t i = 0; i < steps; ++i) {
    const HistoryStep& step = history[i];
    if (step.batch.empty()) {
      store.OnAnalysisCommitted(step.cohort, step.generation,
                                step.analyzed_records, step.analysis);
    } else {
      ADA_CHECK(store.Ingest(step.cohort, step.batch).ok());
    }
  }
}

const std::vector<std::string>& HistoryCohorts() {
  static const std::vector<std::string> cohorts = {"alpha", "beta-2",
                                                   "gamma_3"};
  return cohorts;
}

/// A seeded history over three cohorts whose last step is a warm step
/// when `warm_last`, else an ingest. Exam names need CSV and JSON
/// quoting.
std::vector<HistoryStep> MakeHistory(uint64_t seed, bool warm_last) {
  const std::vector<std::string> exams = {
      "ecg", "x,ray", "say \"ah\"", "line\nbreak", "tab\there", "\xc3\xbcltra"};
  common::Rng rng(seed);
  std::map<std::string, std::pair<int64_t, int64_t>> model;  // gen, records
  std::map<std::string, int64_t> analyzed;
  std::vector<HistoryStep> history;
  auto ingest = [&](const std::string& cohort, size_t records) {
    HistoryStep step;
    step.cohort = cohort;
    for (size_t i = 0; i < records; ++i) {
      step.batch.push_back(
          Raw(static_cast<int32_t>(rng.UniformInt(0, 30)),
              exams[rng.UniformUint64(exams.size())],
              static_cast<int32_t>(rng.UniformInt(-5, 400))));
    }
    model[cohort].first += 1;
    model[cohort].second += static_cast<int64_t>(records);
    history.push_back(std::move(step));
  };
  auto warm = [&](const std::string& cohort) {
    if (model[cohort].first <= analyzed[cohort]) return false;
    HistoryStep step;
    step.cohort = cohort;
    step.generation = model[cohort].first;
    step.analyzed_records = model[cohort].second;
    step.analysis =
        FakeSuccess(static_cast<int32_t>(rng.UniformInt(2, 3)), 3,
                    rng.UniformDouble(-2.0, 2.0));
    analyzed[cohort] = step.generation;
    history.push_back(std::move(step));
    return true;
  };
  for (const std::string& cohort : HistoryCohorts()) ingest(cohort, 20);
  for (int i = 0; i < 14; ++i) {
    const std::string& cohort =
        HistoryCohorts()[rng.UniformUint64(HistoryCohorts().size())];
    if (rng.UniformDouble() < 0.35 && warm(cohort)) continue;
    ingest(cohort, static_cast<size_t>(rng.UniformInt(1, 5)));
  }
  if (warm_last) {
    ingest("beta-2", 1);
    EXPECT_TRUE(warm("beta-2"));
  } else {
    ingest("gamma_3", 4);
  }
  return history;
}

/// Everything a reader of the store can see, cohort by cohort.
void ExpectSameStore(service::CohortStore& actual,
                     service::CohortStore& expected,
                     const std::string& where) {
  const service::CohortStoreStats got = actual.stats();
  const service::CohortStoreStats want = expected.stats();
  EXPECT_EQ(got.cohorts, want.cohorts) << where;
  EXPECT_EQ(got.batches, want.batches) << where;
  EXPECT_EQ(got.records, want.records) << where;
  EXPECT_EQ(got.generations, want.generations) << where;
  for (const std::string& cohort : HistoryCohorts()) {
    auto want_snapshot = expected.Snapshot(cohort);
    auto got_snapshot = actual.Snapshot(cohort);
    ASSERT_EQ(got_snapshot.ok(), want_snapshot.ok()) << where << cohort;
    if (!want_snapshot.ok()) continue;
    EXPECT_EQ(got_snapshot->ToCsv(), want_snapshot->ToCsv())
        << where << cohort;
    auto got_job = actual.BuildCohortJob(cohort);
    auto want_job = expected.BuildCohortJob(cohort);
    ASSERT_TRUE(got_job.ok() && want_job.ok()) << where << cohort;
    EXPECT_EQ(got_job->cohort_generation, want_job->cohort_generation)
        << where << cohort;
    EXPECT_EQ(got_job->options.warm.centroids,
              want_job->options.warm.centroids)
        << where << cohort;
    EXPECT_EQ(got_job->options.warm.exam_types,
              want_job->options.warm.exam_types);
    EXPECT_EQ(got_job->options.warm.best_k, want_job->options.warm.best_k);
  }
}

/// Opens the store log in `dir` and checks it against a direct
/// in-memory replay of the first `steps` steps; then the next ingest
/// must commit at generation + 1 and survive another reload.
void ExpectRecovers(const std::string& dir,
                    const std::vector<HistoryStep>& history, size_t steps,
                    const std::string& where) {
  service::CohortStore expected(service::CohortStoreOptions{});
  Replay(expected, history, steps);
  const std::vector<dataset::RawExamRecord> next = {Raw(3, "ecg", 500)};
  {
    service::CohortStore recovered(service::CohortStoreOptions{dir});
    ASSERT_TRUE(recovered.status().ok())
        << where << recovered.status().ToString();
    ExpectSameStore(recovered, expected, where);
    const int64_t generation =
        expected.BuildCohortJob("alpha")->cohort_generation;
    auto committed = recovered.Ingest("alpha", next, generation);
    ASSERT_TRUE(committed.ok()) << where << committed.status().ToString();
    EXPECT_EQ(committed->generation, generation + 1) << where;
    ASSERT_TRUE(expected.Ingest("alpha", next, generation).ok());
  }
  service::CohortStore reloaded(service::CohortStoreOptions{dir});
  ASSERT_TRUE(reloaded.status().ok()) << where;
  ExpectSameStore(reloaded, expected, where + " after the next ingest");
}

TEST(CohortStoreTest, GeneratedCrashWindowRecoversTheCommittedEntries) {
  for (const bool warm_last : {false, true}) {
    SCOPED_TRACE(warm_last ? "last entry: warm" : "last entry: ingest");
    const std::vector<HistoryStep> history = MakeHistory(2027, warm_last);
    const std::string dir = MakeScratchDir("crash_source");
    size_t last_entry_start = 0;
    {
      service::CohortStore store(service::CohortStoreOptions{dir});
      Replay(store, history, history.size() - 1);
      last_entry_start = ReadLog(dir).size();
      Replay(store, {history.back()}, 1);
    }
    const std::string log = ReadLog(dir);
    ASSERT_GT(log.size(), last_entry_start);
    ASSERT_EQ(log.back(), '\n');

    // Non-vacuous: a warm last entry leaves warm state to compare.
    if (warm_last) {
      service::CohortStore expected(service::CohortStoreOptions{});
      Replay(expected, history, history.size());
      EXPECT_FALSE(
          expected.BuildCohortJob("beta-2")->options.warm.centroids.empty());
    }

    // A crash at every byte offset inside the last entry: everything
    // before it is committed, nothing of it is.
    const std::string crash = MakeScratchDir("crash_cut");
    for (size_t cut = last_entry_start; cut < log.size(); ++cut) {
      WriteLog(crash, std::string_view(log).substr(0, cut));
      ExpectRecovers(crash, history, history.size() - 1,
                     "cut at byte " + std::to_string(cut) + ": ");
      if (HasFatalFailure()) return;
    }
    // A whole entry body whose newline never landed, after a complete
    // log: the full history is committed, the body is not.
    WriteLog(crash, log + log.substr(last_entry_start,
                                     log.size() - 1 - last_entry_start));
    ExpectRecovers(crash, history, history.size(), "trailing body: ");
  }
}

TEST(CohortStoreTest, CorruptCommittedEntryRefusesToOpen) {
  const std::string source = MakeScratchDir("corrupt_source");
  {
    service::CohortStore store(service::CohortStoreOptions{source});
    ASSERT_TRUE(
        store.Ingest("ward", {Raw(0, "ecg", 1), Raw(1, "mri", 2)}).ok());
    ASSERT_TRUE(store.Ingest("ward", {Raw(2, "ecg", 3)}).ok());
    store.OnAnalysisCommitted("ward", 2, 3, FakeSuccess(2, 2, 0.5));
    ASSERT_TRUE(store.Ingest("ward", {Raw(3, "ecg", 4)}).ok());
  }
  const std::string log = ReadLog(source);
  const size_t first_end = log.find('\n') + 1;
  const size_t second_end = log.find('\n', first_end) + 1;
  std::string flipped = log;
  flipped[first_end / 2] ^= 0x01;  // Inside the first entry.
  std::string repeated = log;      // Generation 1 committed twice.
  repeated.insert(first_end, log.substr(0, first_end));
  std::string bad_last = log;      // The last committed entry.
  bad_last[bad_last.size() - 3] ^= 0x01;
  std::string unframed = log;      // A line without its checksum.
  unframed.insert(second_end, "{\"kind\":\"ingest\"}\n");

  int variant = 0;
  for (const std::string& corrupt : {flipped, repeated, bad_last, unframed}) {
    SCOPED_TRACE("variant " + std::to_string(variant++));
    const std::string dir = MakeScratchDir("corrupt");
    WriteLog(dir, corrupt);
    service::CohortStore store(service::CohortStoreOptions{dir});
    EXPECT_EQ(store.status().code(), StatusCode::kDataLoss)
        << store.status().ToString();
    // Nothing is served and nothing is written: committed batches are
    // never silently dropped or written over.
    EXPECT_EQ(store.stats().cohorts, 0);
    EXPECT_EQ(store.Ingest("ward", {Raw(9, "ecg", 9)}).status().code(),
              StatusCode::kDataLoss);
    EXPECT_EQ(ReadLog(dir), corrupt);

    service::ServerOptions options;
    options.cohort_directory = dir;
    service::AnalysisServer server(std::move(options));
    EXPECT_EQ(server.Start().code(), StatusCode::kDataLoss);
  }
}

TEST(CohortStoreTest, RefusesTheOldPerCohortLayout) {
  for (const std::string file : {"ward.manifest.json", "ward.records"}) {
    const std::string dir = MakeScratchDir("old_layout");
    {
      std::FILE* out = std::fopen((dir + "/" + file).c_str(), "wb");
      ASSERT_NE(out, nullptr);
      std::fputs("{}\n", out);
      std::fclose(out);
    }
    service::CohortStore store(service::CohortStoreOptions{dir});
    EXPECT_EQ(store.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(store.status().message().find(file), std::string::npos)
        << store.status().ToString();
    EXPECT_EQ(store.Ingest("ward", {Raw(0, "ecg", 1)}).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_FALSE(std::filesystem::exists(LogPath(dir)));

    service::ServerOptions options;
    options.cohort_directory = dir;
    service::AnalysisServer server(std::move(options));
    const common::Status started = server.Start();
    EXPECT_EQ(started.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(started.message().find(file), std::string::npos);
  }
}

TEST(CohortStoreTest, RequestPathNeverRenamesAndFoldsDeadWarmBytes) {
  const std::string dir = MakeScratchDir("fold");
  service::CohortStoreOptions options;
  options.directory = dir;
  service::CohortStore store(options);
  ASSERT_TRUE(store.Ingest("ward", {Raw(0, "ecg", 1), Raw(1, "mri", 2)}).ok());

  // With every K-DB storage step failing, ingests and warm commits still
  // succeed: only the fold goes through AtomicWriteFile, and its
  // failure just leaves the dead bytes in the log. Each warm entry here
  // is about 30 KiB, so dead bytes pass the 1 MiB floor well inside
  // the loop.
  common::FailpointRegistry& failpoints = common::FailpointRegistry::Default();
  ASSERT_TRUE(failpoints
                  .Configure("kdb.storage.write=error(UNAVAILABLE);"
                             "kdb.storage.fsync=error(UNAVAILABLE);"
                             "kdb.storage.rename=error(UNAVAILABLE)")
                  .ok());
  size_t size = ReadLog(dir).size();
  int64_t records = 2;
  for (int64_t generation = 2; generation <= 50; ++generation) {
    ASSERT_TRUE(store.Ingest("ward", {Raw(2, "ecg", 3)}).ok());
    ++records;
    store.OnAnalysisCommitted("ward", generation, records,
                              FakeSuccess(8, 200, 1.0 / 3 + generation));
    const size_t grown = ReadLog(dir).size();
    ASSERT_GT(grown, size) << "generation " << generation;
    size = grown;
  }
  EXPECT_EQ(store.stats().snapshot_failures, 0);
  EXPECT_GT(failpoints.hits("kdb.storage.write"), 0);  // Folds were tried.
  failpoints.Clear();

  // Unarmed, the next warm commit folds: the log shrinks to one ingest
  // entry and one warm entry.
  ASSERT_TRUE(store.Ingest("ward", {Raw(2, "ecg", 3)}).ok());
  ++records;
  store.OnAnalysisCommitted("ward", 51, records, FakeSuccess(8, 200, 0.75));
  const std::string folded = ReadLog(dir);
  EXPECT_LT(folded.size(), size / 10);
  EXPECT_EQ(std::count(folded.begin(), folded.end(), '\n'), 2);

  // The fold kept everything a reader sees, and the store appends to the
  // new file.
  ASSERT_TRUE(store.Ingest("ward", {Raw(4, "xray", 5)}).ok());
  service::CohortStore reloaded(options);
  ASSERT_TRUE(reloaded.status().ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.Snapshot("ward")->ToCsv(),
            store.Snapshot("ward")->ToCsv());
  EXPECT_EQ(reloaded.stats().generations, 52);
  EXPECT_EQ(reloaded.stats().batches, 52);
  EXPECT_EQ(reloaded.stats().records, store.stats().records);
  EXPECT_EQ(reloaded.BuildCohortJob("ward")->options.warm.centroids,
            transform::Matrix(8, 200, 0.75));
}

TEST(CohortStoreTest, ExpectedGenerationGuardsAgainstReplay) {
  service::CohortStore store(service::CohortStoreOptions{});
  std::vector<dataset::RawExamRecord> batch = {Raw(0, "ecg", 1)};

  // Conditional first append: a cohort that does not exist yet is at
  // generation 0.
  ASSERT_TRUE(store.Ingest("ward", batch, /*expected_generation=*/0).ok());

  // The lost-ack replay: the client resends with the generation it
  // observed before the commit. The guard rejects it — nothing is
  // double-applied — and the mismatch tells the client the original
  // batch landed.
  auto replay = store.Ingest("ward", batch, /*expected_generation=*/0);
  EXPECT_EQ(replay.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.stats().generations, 1);
  EXPECT_EQ(store.Snapshot("ward")->num_records(), 1u);

  // The guard also refuses a fork: a fresh (empty) cohort cannot
  // absorb a guarded batch meant for generation 1 of the original.
  auto forked = store.Ingest("fork", batch, /*expected_generation=*/1);
  EXPECT_EQ(forked.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.stats().cohorts, 1);

  // Matching generation commits; unconditional appends stay unchanged.
  ASSERT_TRUE(
      store.Ingest("ward", {Raw(1, "mri", 2)}, /*expected_generation=*/1)
          .ok());
  ASSERT_TRUE(store.Ingest("ward", {Raw(2, "ecg", 3)}).ok());
  EXPECT_EQ(store.stats().generations, 3);
  EXPECT_EQ(store.Snapshot("ward")->num_records(), 3u);
}

// ---------------------------------------------------------------------
// Warm-start state machine.

TEST(CohortStoreTest, WarmStartAppliesUntilDriftGateTrips) {
  service::CohortStore store(service::CohortStoreOptions{});

  std::vector<dataset::RawExamRecord> base;
  for (int i = 0; i < 8; ++i) {
    base.push_back(Raw(i % 4, "exam_" + std::to_string(i % 3), i));
  }
  ASSERT_TRUE(store.Ingest("ward", base).ok());

  // No analysis yet: the first job runs cold.
  auto cold = store.BuildCohortJob("ward");
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(cold.value().options.warm.centroids.empty());
  EXPECT_EQ(cold.value().cohort_generation, 1);
  EXPECT_EQ(cold.value().options.dataset_id, "ward");

  store.OnAnalysisCommitted("ward", 1, 8, FakeSuccess(7, 6, 1.0));

  // Two fresh records over ten total: well under the drift gate, so
  // the next job carries the warm hint. candidate_ks stays in its
  // canonical order — it is hashed in order by the options signature,
  // so the warm and cold jobs over the same snapshot must produce the
  // same fingerprint (the optimizer reorders evaluation internally,
  // keyed off the hint).
  ASSERT_TRUE(
      store.Ingest("ward", {Raw(0, "exam_0", 20), Raw(1, "exam_1", 21)}).ok());
  auto warm = store.BuildCohortJob("ward");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().options.warm.centroids, transform::Matrix(7, 6, 1.0));
  EXPECT_EQ(warm.value().options.warm.best_k, 7);
  EXPECT_EQ(warm.value().options.optimizer.candidate_ks,
            core::SessionOptions().optimizer.candidate_ks);
  EXPECT_EQ(service::SessionOptionsSignature(warm.value().options),
            service::SessionOptionsSignature(cold.value().options));
  EXPECT_EQ(store.stats().warm_starts, 1);
  EXPECT_EQ(store.stats().cold_fallbacks, 0);

  // A flood of new records (32 of 40 arrived since the analysis)
  // exceeds drift_threshold: the stale centroids are dropped and the
  // job degrades to a cold run.
  std::vector<dataset::RawExamRecord> flood;
  for (int i = 0; i < 30; ++i) {
    flood.push_back(Raw(i % 6, "exam_" + std::to_string(i % 4), 30 + i));
  }
  ASSERT_TRUE(store.Ingest("ward", flood).ok());
  auto drifted = store.BuildCohortJob("ward");
  ASSERT_TRUE(drifted.ok());
  EXPECT_TRUE(drifted.value().options.warm.centroids.empty());
  EXPECT_EQ(store.stats().cold_fallbacks, 1);
}

TEST(CohortStoreTest, StaleAnalysisNotificationIsIgnored) {
  service::CohortStore store(service::CohortStoreOptions{});
  ASSERT_TRUE(store.Ingest("ward", {Raw(0, "ecg", 1)}).ok());
  ASSERT_TRUE(store.Ingest("ward", {Raw(1, "mri", 2)}).ok());

  store.OnAnalysisCommitted("ward", 2, 2, FakeSuccess(4, 3, 2.0));
  // A straggler worker reporting an older generation must not clobber
  // the newer warm state.
  store.OnAnalysisCommitted("ward", 1, 1, FakeSuccess(3, 3, 9.0));

  auto job = store.BuildCohortJob("ward");
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job.value().options.warm.best_k, 4);
  EXPECT_EQ(job.value().options.warm.centroids, transform::Matrix(4, 3, 2.0));
}

TEST(CohortStoreTest, DriftGateMeasuresAgainstTheAnalyzedSnapshot) {
  // Batches can land between a job's snapshot and its analysis
  // committing. The drift gate must count them as fresh — its baseline
  // is the ANALYZED snapshot's record count, not the live log's at
  // notification time (which would under-count fresh records and warm
  // a cohort that has actually drifted past the threshold).
  service::CohortStore store(service::CohortStoreOptions{});
  std::vector<dataset::RawExamRecord> base;
  for (int i = 0; i < 4; ++i) {
    base.push_back(Raw(i, "exam_" + std::to_string(i % 2), i));
  }
  ASSERT_TRUE(store.Ingest("ward", base).ok());  // Generation 1: 4 records.

  // 16 more records arrive while generation 1 is still being analyzed.
  std::vector<dataset::RawExamRecord> meanwhile;
  for (int i = 0; i < 16; ++i) {
    meanwhile.push_back(Raw(i % 5, "exam_" + std::to_string(i % 3), 10 + i));
  }
  ASSERT_TRUE(store.Ingest("ward", meanwhile).ok());

  // The generation-1 analysis commits now, over its 4-record snapshot.
  store.OnAnalysisCommitted("ward", 1, 4, FakeSuccess(3, 2, 1.0));

  // 16 of the 20 live records are fresh relative to the analyzed
  // snapshot — far past drift_threshold, so the job must run cold.
  auto job = store.BuildCohortJob("ward");
  ASSERT_TRUE(job.ok());
  EXPECT_TRUE(job.value().options.warm.centroids.empty());
  EXPECT_EQ(store.stats().cold_fallbacks, 1);
  EXPECT_EQ(store.stats().warm_starts, 0);
}

TEST(CohortStoreTest, IncompleteResultsNeverBecomeWarmState) {
  service::CohortStore store(service::CohortStoreOptions{});
  ASSERT_TRUE(store.Ingest("ward", {Raw(0, "ecg", 1)}).ok());

  core::SessionResult no_candidates;
  no_candidates.mining_exam_types = {0, 1};
  store.OnAnalysisCommitted("ward", 1, 1, no_candidates);

  core::SessionResult no_exam_types = FakeSuccess(3, 4, 1.0);
  no_exam_types.mining_exam_types.clear();
  store.OnAnalysisCommitted("ward", 1, 1, no_exam_types);

  auto job = store.BuildCohortJob("ward");
  ASSERT_TRUE(job.ok());
  EXPECT_TRUE(job.value().options.warm.centroids.empty());
}

// ---------------------------------------------------------------------
// The delta-vs-cold invariant (end to end, real sessions).
//
// Two gates, per the warm-start contract (core/session.h): when the
// cold sweep already converges to the optimum, the hint attempt ties
// and the delta report is BYTE-IDENTICAL to the cold run (gate 1,
// asserted below); in regimes where the hint genuinely redirects the
// k-means trajectory, the delta run may only *improve* the selected
// configuration, and must itself stay deterministic (gate 2, the
// following test).

/// Session options strong enough that the cold sweep converges: the
/// warm hint can then only tie, never redirect.
core::SessionOptions ConvergedOptions(const std::string& dataset_id) {
  core::SessionOptions options = FastOptions(dataset_id);
  options.optimizer.restarts = 6;
  options.optimizer.kmeans.max_iterations = 100;
  options.partial.kmeans.max_iterations = 100;
  return options;
}

TEST(CohortStoreTest, DeltaJobReportIsByteIdenticalToColdRun) {
  // Gate 1: report byte-identity.
  service::CohortStore store(service::CohortStoreOptions{});
  std::vector<dataset::RawExamRecord> rows = ToRaw(MakeSyntheticLog(23));
  const size_t split = (rows.size() * 9) / 10;

  // Generation 1: the bulk of the cohort, analyzed cold.
  ASSERT_TRUE(store
                  .Ingest("icu", std::vector<dataset::RawExamRecord>(
                                     rows.begin(), rows.begin() + split))
                  .ok());
  auto job1 = store.BuildCohortJob("icu");
  ASSERT_TRUE(job1.ok());
  kdb::Database db1;
  auto run1 = core::AnalysisSession(&db1).Run(job1.value().log, nullptr,
                                              ConvergedOptions("icu"));
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  store.OnAnalysisCommitted(
      "icu", 1, static_cast<int64_t>(job1.value().log.num_records()),
      run1.value());

  // Generation 2: a 10% tail lands — under the drift gate, so the
  // next job carries the prior centroids as a warm hint.
  ASSERT_TRUE(store
                  .Ingest("icu", std::vector<dataset::RawExamRecord>(
                                     rows.begin() + split, rows.end()))
                  .ok());
  auto job2 = store.BuildCohortJob("icu");
  ASSERT_TRUE(job2.ok());
  ASSERT_FALSE(job2.value().options.warm.centroids.empty());
  EXPECT_EQ(store.stats().warm_starts, 1);

  // The invariant: with the cold restarts unchanged (warm.restarts
  // matching the cold sweep), the warm (delta) run and a cold run over
  // the same accumulated snapshot render byte-identical reports.
  core::SessionOptions warm_options = ConvergedOptions("icu");
  warm_options.warm = job2.value().options.warm;
  warm_options.warm.restarts = warm_options.optimizer.restarts;
  kdb::Database db2;
  auto warm_run = core::AnalysisSession(&db2).Run(job2.value().log, nullptr,
                                                  warm_options);
  ASSERT_TRUE(warm_run.ok()) << warm_run.status().ToString();

  kdb::Database db3;
  auto cold_run = core::AnalysisSession(&db3).Run(job2.value().log, nullptr,
                                                  ConvergedOptions("icu"));
  ASSERT_TRUE(cold_run.ok()) << cold_run.status().ToString();

  EXPECT_EQ(core::RenderSessionReport(warm_run.value(), "icu"),
            core::RenderSessionReport(cold_run.value(), "icu"));
  EXPECT_EQ(warm_run.value().summary, cold_run.value().summary);
}

TEST(CohortStoreTest, DeltaJobIsDeterministicAndNeverWorseThanCold) {
  // Gate 2: in the fast regime (one restart, few iterations) the hint
  // genuinely redirects the sweep. The delta run must then (a) select
  // a configuration at least as good as the cold run's and (b) be
  // byte-deterministic itself — the same hint always renders the same
  // report, which is what the versioned result cache serves.
  service::CohortStore store(service::CohortStoreOptions{});
  std::vector<dataset::RawExamRecord> rows = ToRaw(MakeSyntheticLog(23));
  const size_t split = (rows.size() * 9) / 10;
  ASSERT_TRUE(store
                  .Ingest("icu", std::vector<dataset::RawExamRecord>(
                                     rows.begin(), rows.begin() + split))
                  .ok());
  auto job1 = store.BuildCohortJob("icu");
  ASSERT_TRUE(job1.ok());
  kdb::Database db1;
  auto run1 = core::AnalysisSession(&db1).Run(job1.value().log, nullptr,
                                              FastOptions("icu"));
  ASSERT_TRUE(run1.ok());
  store.OnAnalysisCommitted(
      "icu", 1, static_cast<int64_t>(job1.value().log.num_records()),
      run1.value());
  ASSERT_TRUE(store
                  .Ingest("icu", std::vector<dataset::RawExamRecord>(
                                     rows.begin() + split, rows.end()))
                  .ok());
  auto job2 = store.BuildCohortJob("icu");
  ASSERT_TRUE(job2.ok());
  ASSERT_FALSE(job2.value().options.warm.centroids.empty());

  core::SessionOptions warm_options = FastOptions("icu");
  warm_options.warm = job2.value().options.warm;
  kdb::Database db2;
  auto warm_run = core::AnalysisSession(&db2).Run(job2.value().log, nullptr,
                                                  warm_options);
  ASSERT_TRUE(warm_run.ok());
  kdb::Database db3;
  auto warm_again = core::AnalysisSession(&db3).Run(job2.value().log, nullptr,
                                                    warm_options);
  ASSERT_TRUE(warm_again.ok());
  kdb::Database db4;
  auto cold_run = core::AnalysisSession(&db4).Run(job2.value().log, nullptr,
                                                  FastOptions("icu"));
  ASSERT_TRUE(cold_run.ok());

  // (a) Monotone: the hint can only improve the selected configuration.
  EXPECT_GE(warm_run.value().optimizer.best().composite,
            cold_run.value().optimizer.best().composite);
  // (b) Deterministic: delta-vs-delta byte-identity.
  EXPECT_EQ(core::RenderSessionReport(warm_run.value(), "icu"),
            core::RenderSessionReport(warm_again.value(), "icu"));
}

// ---------------------------------------------------------------------
// Scheduler integration: versioned fingerprints and supersede.

TEST(CohortStoreTest, SchedulerSupersedesStaleQueuedGenerations) {
  service::SchedulerOptions options;
  options.max_workers = 2;
  options.start_paused = true;
  int64_t hook_fired = 0;
  int64_t hook_generation = 0;
  common::Mutex hook_mutex;
  options.on_session_success = [&](const service::JobRequest& request,
                                   const core::SessionResult& result) {
    common::MutexLock lock(&hook_mutex);
    ++hook_fired;
    hook_generation = request.cohort_generation;
    EXPECT_FALSE(result.optimizer.candidates.empty());
  };
  service::Scheduler scheduler(options);

  dataset::ExamLog log = MakeSyntheticLog(31);
  service::JobRequest stale;
  stale.log = log;
  stale.options = FastOptions("wave");
  stale.cohort = "wave";
  stale.cohort_generation = 1;
  auto stale_id = scheduler.Submit(std::move(stale));
  ASSERT_TRUE(stale_id.ok());

  service::JobRequest fresh;
  fresh.log = std::move(log);
  fresh.options = FastOptions("wave");
  fresh.cohort = "wave";
  fresh.cohort_generation = 2;
  auto fresh_id = scheduler.Submit(std::move(fresh));
  ASSERT_TRUE(fresh_id.ok());

  // Admitting generation 2 cancelled the queued generation-1 job.
  auto stale_snapshot = scheduler.Status(stale_id.value());
  ASSERT_TRUE(stale_snapshot.ok());
  EXPECT_EQ(stale_snapshot.value().state, service::JobState::kCancelled);
  EXPECT_EQ(stale_snapshot.value().status.code(),
            StatusCode::kFailedPrecondition);
  EXPECT_NE(stale_snapshot.value().status.message().find("superseded"),
            std::string::npos);
  EXPECT_EQ(scheduler.stats().superseded, 1);

  // Waiting on the superseded job resolves immediately — no hang.
  auto awaited = scheduler.AwaitResult(stale_id.value(), 5000.0);
  ASSERT_TRUE(awaited.ok());
  EXPECT_EQ(awaited.value().state, service::JobState::kCancelled);

  scheduler.Resume();
  auto done = scheduler.AwaitResult(fresh_id.value(), 120000.0);
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done.value().state, service::JobState::kDone)
      << done.value().status.ToString();
  // The fingerprint is versioned by cohort and generation.
  EXPECT_EQ(done.value().fingerprint.rfind("wave@2/", 0), 0u)
      << done.value().fingerprint;

  // The committed cache entry carries the versioning fields and the
  // success hook fired exactly once, for generation 2.
  std::vector<service::CachedAnalysis> entries = scheduler.cache().Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].cohort, "wave");
  EXPECT_EQ(entries[0].generation, 2);
  common::MutexLock lock(&hook_mutex);
  EXPECT_EQ(hook_fired, 1);
  EXPECT_EQ(hook_generation, 2);
}

// ---------------------------------------------------------------------
// Result-cache supersede.

service::CachedAnalysis CohortEntry(const std::string& cohort,
                                    int64_t generation) {
  service::CachedAnalysis entry;
  entry.fingerprint =
      cohort + "@" + std::to_string(generation) + "/deadbeef00";
  entry.dataset_id = cohort;
  entry.cohort = cohort;
  entry.generation = generation;
  entry.summary = "summary g" + std::to_string(generation);
  entry.report = "report g" + std::to_string(generation);
  return entry;
}

TEST(CohortStoreTest, CacheSupersedesOlderGenerationsExactlyOnce) {
  service::ResultCache cache(1 << 20);
  cache.Insert(CohortEntry("c", 1));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.superseded(), 0);

  // A newer generation evicts the older one exactly once.
  cache.Insert(CohortEntry("c", 2));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.superseded(), 1);
  EXPECT_FALSE(cache.Lookup(CohortEntry("c", 1).fingerprint).has_value());
  ASSERT_TRUE(cache.Lookup(CohortEntry("c", 2).fingerprint).has_value());

  // Re-inserting the current generation refreshes without counting.
  cache.Insert(CohortEntry("c", 2));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.superseded(), 1);

  // Replication replay can deliver an old generation late: the stale
  // entry is dropped, the newer snapshot stays.
  cache.Insert(CohortEntry("c", 1));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.superseded(), 2);
  EXPECT_FALSE(cache.Lookup(CohortEntry("c", 1).fingerprint).has_value());
  ASSERT_TRUE(cache.Lookup(CohortEntry("c", 2).fingerprint).has_value());

  // Other cohorts and plain entries are untouched bystanders.
  cache.Insert(CohortEntry("other", 1));
  service::CachedAnalysis plain;
  plain.fingerprint = "plainfingerprint";
  plain.dataset_id = "plain";
  plain.report = "r";
  cache.Insert(plain);
  cache.Insert(CohortEntry("c", 3));
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.superseded(), 3);
  EXPECT_TRUE(cache.Lookup("plainfingerprint").has_value());
  EXPECT_TRUE(cache.Lookup(CohortEntry("other", 1).fingerprint).has_value());
}

// ---------------------------------------------------------------------
// The server's ingest verb, over the wire.

TEST(CohortStoreTest, ServerIngestVerbRoundTrip) {
  service::ServerOptions options;
  options.scheduler.max_workers = 1;
  service::AnalysisServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  auto client = service::AnalysisClient::Connect(server.port());
  ASSERT_TRUE(client.ok());

  Json::Object record;
  record["patient"] = static_cast<int64_t>(0);
  record["exam_type"] = std::string("ecg");
  record["day"] = static_cast<int64_t>(3);
  Json::Object body;
  body["verb"] = "ingest";
  body["cohort"] = std::string("ward");
  body["records"] = Json(Json::Array{Json(std::move(record))});

  auto response = client.value().Call(Json::Object(body));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response.value().Find("ok")->AsBool());
  EXPECT_EQ(response.value().Find("cohort")->AsString(), "ward");
  EXPECT_EQ(response.value().Find("generation")->AsInt(), 1);
  EXPECT_EQ(response.value().Find("total_records")->AsInt(), 1);

  auto again = client.value().Call(std::move(body));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().Find("generation")->AsInt(), 2);

  // stats and health surface the ingest counters.
  for (const std::string& verb : {std::string("stats"), std::string("health")}) {
    auto info = client.value().Call(verb);
    ASSERT_TRUE(info.ok()) << verb;
    const Json* ingest = info.value().Find("ingest");
    ASSERT_NE(ingest, nullptr) << verb;
    EXPECT_EQ(ingest->Find("batches")->AsInt(), 2) << verb;
    EXPECT_EQ(ingest->Find("records")->AsInt(), 2) << verb;
    EXPECT_EQ(ingest->Find("cohorts")->AsInt(), 1) << verb;
  }

  // Malformed ingests are rejected with INVALID_ARGUMENT (the client
  // reconstructs server-side error responses as their Status).
  Json::Object bad;
  bad["verb"] = "ingest";
  bad["cohort"] = std::string("ward");
  auto rejected = client.value().Call(std::move(bad));
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  server.Stop();
}

TEST(CohortStoreTest, FollowerRejectsIngest) {
  service::ServerOptions options;
  options.role = service::ServerRole::kFollower;
  options.scheduler.max_workers = 1;
  service::AnalysisServer follower(std::move(options));
  ASSERT_TRUE(follower.Start().ok());

  auto client = service::AnalysisClient::Connect(follower.port());
  ASSERT_TRUE(client.ok());

  Json::Object record;
  record["patient"] = static_cast<int64_t>(0);
  record["exam_type"] = std::string("ecg");
  Json::Object body;
  body["verb"] = "ingest";
  body["cohort"] = std::string("ward");
  body["records"] = Json(Json::Array{Json(std::move(record))});
  auto response = client.value().Call(std::move(body));
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);

  follower.Stop();
}

}  // namespace
}  // namespace adahealth
