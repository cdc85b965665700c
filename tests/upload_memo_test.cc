// The router's upload memo: the keyed line digest it rests on, the memo
// as a bounded map, and the memo behind a running router. Every answer
// the memo gives is checked against Router::Fingerprint computed from
// scratch, over generated uploads and near-duplicates of them that
// differ by one byte, one swapped 8-byte word, one swapped 32-byte
// block, one appended record, JSON key order or whitespace, dataset_id
// or one option: no line ever hits another line's entry.
#include "service/upload_memo.h"

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "common/check.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "common/rng.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/router.h"
#include "service/scheduler.h"
#include "service/server.h"

namespace adahealth {
namespace {

using common::Json;
using service::Digest128;
using service::LineDigester;
using service::UploadMemo;
using service::UploadRoute;

std::string RandomBytes(common::Rng& rng, size_t size) {
  std::string bytes(size, '\0');
  for (char& byte : bytes) byte = static_cast<char>(rng.UniformInt(0, 255));
  return bytes;
}

/// Distinct `variants` must have distinct digests.
void ExpectDistinct(const LineDigester& digester,
                    const std::vector<std::string>& variants,
                    const std::string& what) {
  std::set<std::pair<uint64_t, uint64_t>> seen;
  for (const std::string& variant :
       std::set<std::string>(variants.begin(), variants.end())) {
    const Digest128 digest = digester.Digest(variant);
    EXPECT_TRUE(seen.emplace(digest.lo, digest.hi).second)
        << what << ": two variants share a digest (size " << variant.size()
        << ")";
  }
}

TEST(LineDigesterTest, BitFlipsSwapsTruncationAndExtensionChangeTheDigest) {
  const LineDigester digester(20160516);
  common::Rng rng(7);
  for (size_t size : {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127,
                      128, 129, 200, 4096 + 17}) {
    const std::string base = RandomBytes(rng, size);
    std::vector<std::string> variants{base};
    // Every bit flip (a sample of them on the long input).
    const size_t flips = size <= 200 ? 8 * size : 512;
    for (size_t n = 0; n < flips; ++n) {
      const size_t bit = size <= 200 ? n : rng.UniformUint64(8 * size);
      std::string flipped = base;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      variants.push_back(std::move(flipped));
    }
    ExpectDistinct(digester, variants, "bit flips");

    // Swaps of distinct 8-byte words (aligned and not) and of distinct
    // 32-byte blocks.
    variants = {base};
    for (size_t width : {size_t{8}, size_t{32}}) {
      if (size < 2 * width) continue;
      for (int n = 0; n < 64; ++n) {
        const bool aligned = n % 2 == 0;
        size_t a = rng.UniformUint64(size - width + 1);
        size_t b = rng.UniformUint64(size - width + 1);
        if (aligned) {
          a -= a % width;
          b -= b % width;
        }
        if (a > b) std::swap(a, b);
        if (b - a < width) continue;  // Overlapping windows.
        if (base.compare(a, width, base, b, width) == 0) continue;
        std::string swapped = base;
        std::string first = swapped.substr(a, width);
        swapped.replace(a, width, swapped, b, width);
        swapped.replace(b, width, first);
        variants.push_back(std::move(swapped));
      }
    }
    ExpectDistinct(digester, variants, "word and block swaps");

    // Every truncation, and extensions by a zero byte, a random byte and
    // a random tail.
    variants.clear();
    for (size_t length = 0; length <= size; ++length) {
      if (size > 200 && length % 61 != 0 && length != size) continue;
      variants.push_back(base.substr(0, length));
    }
    variants.push_back(base + '\0');
    variants.push_back(base + '\0' + '\0');
    variants.push_back(base + static_cast<char>(rng.UniformInt(1, 255)));
    variants.push_back(base + RandomBytes(rng, 100));
    ExpectDistinct(digester, variants, "truncations and extensions");
  }
  // Runs of zero bytes differ only in length.
  std::vector<std::string> zeros;
  for (size_t length = 0; length <= 200; ++length) {
    zeros.emplace_back(length, '\0');
  }
  ExpectDistinct(digester, zeros, "zero runs");
}

TEST(LineDigesterTest, TheKeyDecidesTheDigest) {
  const std::string line = "{\"verb\":\"submit\",\"csv\":\"patient_id\"}";
  EXPECT_EQ(LineDigester(1).Digest(line), LineDigester(1).Digest(line));
  EXPECT_NE(LineDigester(1).Digest(line), LineDigester(2).Digest(line));
  EXPECT_EQ(LineDigester::ProcessKeyed().Digest(line),
            LineDigester::ProcessKeyed().Digest(line));
}

/// A fast-options CSV submit, every row 32 bytes once the line escapes
/// its newline: "<12-digit patient>,exam<2 digits>,<10-digit day>\n".
Json::Object CsvBody(common::Rng& rng, int patients,
                     const std::string& dataset_id) {
  std::string csv = "patient_id,exam_type,day\n";
  char row[64];
  for (int patient = 0; patient < patients; ++patient) {
    for (int64_t i = rng.UniformInt(3, 10); i > 0; --i) {
      std::snprintf(row, sizeof(row), "%012d,exam%02lld,%010lld\n", patient,
                    static_cast<long long>(rng.UniformInt(0, 19)),
                    static_cast<long long>(rng.UniformInt(0, 364)));
      csv += row;
    }
  }
  Json::Object options;
  options["sample_fraction"] = 0.4;
  options["candidate_ks"] = Json(Json::Array{Json(3), Json(4)});
  options["cv_folds"] = static_cast<int64_t>(4);
  options["restarts"] = static_cast<int64_t>(1);
  Json::Object body;
  body["verb"] = "submit";
  body["csv"] = csv;
  body["dataset_id"] = dataset_id;
  body["options"] = Json(std::move(options));
  return body;
}

/// `body`'s line and near-duplicates of it, all distinct.
std::vector<std::string> NearDuplicates(common::Rng& rng,
                                        const Json::Object& body) {
  const std::string line = Json(body).Dump();
  std::vector<std::string> lines{line};
  constexpr size_t kRowBytes = 32;
  const std::string_view header = "patient_id,exam_type,day\\n";  // Escaped.
  const size_t rows_start = line.find("\"csv\":\"") + 7 + header.size();
  const size_t rows = (line.find('"', rows_start) - rows_start) / kRowBytes;
  ADA_CHECK_GE(rows, 2u);
  auto row_at = [&](size_t r) { return rows_start + r * kRowBytes; };
  auto two_rows = [&](auto differ) {
    for (;;) {
      const size_t a = rng.UniformUint64(rows);
      const size_t b = rng.UniformUint64(rows);
      if (a != b && differ(a, b)) return std::make_pair(a, b);
    }
  };
  // One byte: the last digit of one record's day.
  {
    std::string edited = line;
    char& digit = edited[row_at(rng.UniformUint64(rows)) + 29];
    digit = static_cast<char>('0' + (digit - '0' + 1) % 10);
    lines.push_back(std::move(edited));
  }
  // One swapped 8-byte word: the low digits of two records' patients.
  {
    auto [a, b] = two_rows([&](size_t a, size_t b) {
      return line.compare(row_at(a) + 4, 8, line, row_at(b) + 4, 8) != 0;
    });
    std::string edited = line;
    for (size_t i = 4; i < 12; ++i) {
      std::swap(edited[row_at(a) + i], edited[row_at(b) + i]);
    }
    lines.push_back(std::move(edited));
  }
  // One swapped 32-byte block: two whole records.
  {
    auto [a, b] = two_rows([&](size_t a, size_t b) {
      return line.compare(row_at(a), kRowBytes, line, row_at(b), kRowBytes) !=
             0;
    });
    std::string edited = line;
    for (size_t i = 0; i < kRowBytes; ++i) {
      std::swap(edited[row_at(a) + i], edited[row_at(b) + i]);
    }
    lines.push_back(std::move(edited));
  }
  // One appended record.
  {
    Json::Object longer = body;
    longer["csv"] =
        body.at("csv").AsString() + "000000000000,exam00,0000000001\n";
    lines.push_back(Json(std::move(longer)).Dump());
  }
  // The same request in another key order, and with whitespace.
  {
    const std::string verb = ",\"verb\":\"submit\"";
    std::string reordered = line;
    reordered.erase(reordered.find(verb), verb.size());
    reordered.insert(1, verb.substr(1) + ",");
    lines.push_back(std::move(reordered));
    lines.push_back("{ " + line.substr(1));
  }
  // Another dataset_id, and another option.
  {
    Json::Object renamed = body;
    renamed["dataset_id"] = body.at("dataset_id").AsString() + "-b";
    lines.push_back(Json(std::move(renamed)).Dump());
    Json::Object tuned = body;
    Json::Object options = body.at("options").AsObject();
    options["cv_folds"] = static_cast<int64_t>(5);
    tuned["options"] = Json(std::move(options));
    lines.push_back(Json(std::move(tuned)).Dump());
  }
  const std::set<std::string> distinct(lines.begin(), lines.end());
  ADA_CHECK_EQ(distinct.size(), lines.size());
  return lines;
}

/// Router::Fingerprint of the line, from scratch.
common::StatusOr<UploadRoute> FromScratch(const std::string& line) {
  ADA_ASSIGN_OR_RETURN(service::Request request, service::ParseRequest(line));
  return service::Router::Fingerprint(request.body);
}

void ExpectSameRoute(const UploadRoute& memo, const UploadRoute& scratch,
                     const std::string& what) {
  EXPECT_EQ(memo.fingerprint, scratch.fingerprint) << what;
  EXPECT_EQ(memo.offer_line, scratch.offer_line) << what;
  EXPECT_EQ(memo.body.Dump(), scratch.body.Dump()) << what;
}

TEST(UploadMemoTest, EveryAnswerMatchesFingerprintFromScratch) {
  common::Rng rng(11);
  std::vector<std::string> lines;
  for (int base = 0; base < 8; ++base) {
    // 10 to 600 patients: lines from about 1 KiB to past 100 KiB.
    const int patients = static_cast<int>(
        base % 2 == 0 ? rng.UniformInt(10, 60) : rng.UniformInt(300, 600));
    for (std::string& line : NearDuplicates(
             rng, CsvBody(rng, patients, "memo-" + std::to_string(base)))) {
      lines.push_back(std::move(line));
    }
  }
  // Each line twice, in shuffled order.
  std::vector<size_t> order;
  for (size_t i = 0; i < lines.size(); ++i) {
    order.push_back(i);
    order.push_back(i);
  }
  rng.Shuffle(order);

  UploadMemo memo(LineDigester(rng.NextUint64()));
  std::set<size_t> inserted;
  int hits = 0;
  for (size_t i : order) {
    const std::string what = "line " + std::to_string(i);
    common::StatusOr<UploadRoute> scratch = FromScratch(lines[i]);
    ASSERT_TRUE(scratch.ok()) << what << ": " << scratch.status().ToString();
    const UploadMemo::Key key = memo.KeyOf(lines[i]);
    const UploadRoute* known = memo.Find(key);
    // Only the line's own earlier insert may answer it.
    ASSERT_EQ(known != nullptr, inserted.count(i) == 1) << what;
    if (known != nullptr) {
      ExpectSameRoute(*known, scratch.value(), what);
      ++hits;
    } else {
      memo.Insert(key, scratch.value());
      inserted.insert(i);
    }
  }
  EXPECT_EQ(hits, static_cast<int>(lines.size()));
  EXPECT_EQ(memo.size(), lines.size());

  // The key-order and whitespace variants are the same request: from
  // scratch they route alike, though the memo keeps them apart.
  const UploadRoute base = FromScratch(lines[0]).value();
  ExpectSameRoute(FromScratch(lines[5]).value(), base, "key order");
  ExpectSameRoute(FromScratch(lines[6]).value(), base, "whitespace");
}

TEST(UploadMemoTest, HoldsAtMostRetainedJobsEvictingTheOldestFirst) {
  UploadMemo memo(LineDigester(3));
  constexpr size_t kExtra = 5;
  UploadRoute route;
  for (size_t i = 0; i < service::kRetainedJobs + kExtra; ++i) {
    const std::string line = "line " + std::to_string(i);
    route.fingerprint = std::to_string(i);
    memo.Insert(memo.KeyOf(line), route);
    memo.Insert(memo.KeyOf(line), route);  // A repeat adds nothing.
  }
  EXPECT_EQ(memo.size(), service::kRetainedJobs);
  for (size_t i = 0; i < service::kRetainedJobs + kExtra; ++i) {
    const UploadRoute* known =
        memo.Find(memo.KeyOf("line " + std::to_string(i)));
    if (i < kExtra) {
      EXPECT_EQ(known, nullptr) << i;
    } else {
      ASSERT_NE(known, nullptr) << i;
      EXPECT_EQ(known->fingerprint, std::to_string(i));
    }
  }
}

// ---------------------------------------------------------------------
// Behind a running router.

class RouterUploadMemoTest : public ::testing::Test {
 protected:
  void Start(bool start_paused) {
    service::ServerOptions shard_options;
    shard_options.scheduler.max_workers = 2;
    shard_options.scheduler.start_paused = start_paused;
    shard_ =
        std::make_unique<service::AnalysisServer>(std::move(shard_options));
    ASSERT_TRUE(shard_->Start().ok());
    service::RouterOptions options;
    options.probe_interval_millis = 60000.0;
    options.shards.push_back(service::ShardEndpoints{shard_->port(), 0});
    router_ = std::make_unique<service::Router>(std::move(options));
    ASSERT_TRUE(router_->Start().ok());
    auto client = service::AnalysisClient::Connect(router_->port());
    ASSERT_TRUE(client.ok());
    client_ =
        std::make_unique<service::AnalysisClient>(std::move(client).value());
  }

  void TearDown() override {
    common::FailpointRegistry::Default().Clear();
    if (router_ != nullptr) router_->Stop();
    if (shard_ != nullptr) shard_->Stop();
  }

  common::StatusOr<Json> Submit(const std::string& line) {
    ADA_ASSIGN_OR_RETURN(std::string reply, client_->Exchange(line));
    return service::ParseResponse(reply);
  }

  common::StatusOr<Json> Result(const Json& submitted) {
    Json::Object request;
    request["verb"] = "result";
    request["job_id"] = submitted.Find("job_id")->AsInt();
    request["wait_millis"] = 60000.0;
    return client_->Call(request);
  }

  int64_t RouterCounter(const std::string& name) {
    auto stats = client_->Call("stats");
    ADA_CHECK(stats.ok());
    return stats->Find("router")->Find(name)->AsInt();
  }

  std::unique_ptr<service::AnalysisServer> shard_;
  std::unique_ptr<service::Router> router_;
  std::unique_ptr<service::AnalysisClient> client_;
};

TEST_F(RouterUploadMemoTest, RepeatedUploadIsAHitThatRunsNoPrepare) {
  Start(/*start_paused=*/false);
  common::FailpointRegistry& failpoints = common::FailpointRegistry::Default();
  common::Rng rng(5);
  // A long upload is looked up before its parse, a short one after.
  const std::vector<std::string> uploads{
      Json(CsvBody(rng, 150, "memo-long")).Dump(),
      Json(CsvBody(rng, 60, "memo-short")).Dump()};
  ASSERT_GT(uploads[0].size(), 16u * 1024);
  ASSERT_LT(uploads[1].size(), 16u * 1024);
  for (const std::string& upload : uploads) {
    auto first = Submit(upload);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto first_result = Result(*first);
    ASSERT_TRUE(first_result.ok());
    ASSERT_EQ(first_result->Find("state")->AsString(), "done")
        << first_result->Dump();

    // Any preparation would now fail: the repeat runs none.
    ASSERT_TRUE(failpoints.Configure("router.prepare=error(INTERNAL)").ok());
    const int64_t prepares = failpoints.hits("router.prepare");
    auto repeat = Submit(upload);
    ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
    EXPECT_EQ(failpoints.hits("router.prepare"), prepares);
    EXPECT_EQ(repeat->Find("state")->AsString(), "done");
    EXPECT_TRUE(repeat->Find("cache_hit")->AsBool());
    EXPECT_EQ(repeat->Find("fingerprint")->AsString(),
              first->Find("fingerprint")->AsString());
    auto repeat_result = Result(*repeat);
    ASSERT_TRUE(repeat_result.ok());
    EXPECT_EQ(repeat_result->Find("report")->AsString(),
              first_result->Find("report")->AsString());
    // A second look at the finished job completes nothing again.
    ASSERT_TRUE(Result(*repeat).ok());
    failpoints.Clear();
  }
  const service::RouterStats stats = router_->stats();
  EXPECT_EQ(stats.memo_hits, 2);
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.completed, 4);  // Once per global job id.
  EXPECT_EQ(shard_->scheduler().stats().sessions_executed, 2);
  EXPECT_EQ(RouterCounter("memo_hits"), 2);
  EXPECT_EQ(RouterCounter("memo_entries"), 2);
}

TEST_F(RouterUploadMemoTest, ForcedMissesGiveTheSameReplies) {
  Start(/*start_paused=*/false);
  common::FailpointRegistry& failpoints = common::FailpointRegistry::Default();
  common::Rng rng(6);
  const std::string upload = Json(CsvBody(rng, 150, "memo-forced")).Dump();
  auto first = Submit(upload);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto first_result = Result(*first);
  ASSERT_TRUE(first_result.ok());

  ASSERT_TRUE(
      failpoints.Configure("router.upload_memo=error(UNAVAILABLE)").ok());
  const int64_t prepares = failpoints.hits("router.prepare");
  auto missed = Submit(upload);
  ASSERT_TRUE(missed.ok()) << missed.status().ToString();
  EXPECT_EQ(failpoints.hits("router.prepare"), prepares + 1);
  EXPECT_EQ(router_->stats().memo_hits, 0);
  failpoints.Clear();
  auto hit = Submit(upload);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(router_->stats().memo_hits, 1);

  for (const char* field : {"state", "fingerprint", "dataset_id"}) {
    EXPECT_EQ(missed->Find(field)->AsString(), hit->Find(field)->AsString())
        << field;
  }
  EXPECT_TRUE(missed->Find("cache_hit")->AsBool());
  EXPECT_TRUE(hit->Find("cache_hit")->AsBool());
  auto missed_result = Result(*missed);
  auto hit_result = Result(*hit);
  ASSERT_TRUE(missed_result.ok());
  ASSERT_TRUE(hit_result.ok());
  EXPECT_EQ(missed_result->Find("report")->AsString(),
            first_result->Find("report")->AsString());
  EXPECT_EQ(hit_result->Find("report")->AsString(),
            first_result->Find("report")->AsString());
}

TEST_F(RouterUploadMemoTest, RepliesMatchFingerprintsFromScratch) {
  // The shard runs nothing, so each submit's reply carries the
  // fingerprint the shard computed from the whole line, which it checks
  // against the route_fingerprint the router spliced in.
  Start(/*start_paused=*/true);
  common::Rng rng(12);
  std::vector<std::string> lines;
  for (int patients : {30, 400}) {
    const std::string dataset_id = "oracle-" + std::to_string(patients);
    for (std::string& line :
         NearDuplicates(rng, CsvBody(rng, patients, dataset_id))) {
      lines.push_back(std::move(line));
    }
  }
  for (int round = 0; round < 2; ++round) {
    for (const std::string& line : lines) {
      auto submitted = Submit(line);
      ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
      EXPECT_EQ(submitted->Find("state")->AsString(), "queued");
      EXPECT_EQ(submitted->Find("fingerprint")->AsString(),
                FromScratch(line).value().fingerprint);
    }
    // Only a line's own first submit answers its repeat.
    EXPECT_EQ(router_->stats().memo_hits,
              round * static_cast<int64_t>(lines.size()));
  }
}

TEST_F(RouterUploadMemoTest, MoreDistinctUploadsThanTheBoundLeaveItAtTheBound) {
  Start(/*start_paused=*/false);
  // The shard admits nothing; the router prepares (and remembers) every
  // line before it forwards it.
  ASSERT_TRUE(common::FailpointRegistry::Default()
                  .Configure("service.admission=error(RESOURCE_EXHAUSTED)")
                  .ok());
  constexpr size_t kExtra = 8;
  std::vector<Json::Object> uploads;
  for (size_t i = 0; i < service::kRetainedJobs + kExtra; ++i) {
    Json::Object body;
    body["verb"] = "submit";
    body["csv"] = "patient_id,exam_type,day\n0,a,1\n1,b,2\n";
    body["dataset_id"] = "bound-" + std::to_string(i);
    uploads.push_back(std::move(body));
  }
  for (const auto& reply : client_->CallPipelined(uploads)) {
    ASSERT_EQ(reply.status().code(), common::StatusCode::kResourceExhausted)
        << reply.status().ToString();
  }
  EXPECT_EQ(RouterCounter("memo_entries"),
            static_cast<int64_t>(service::kRetainedJobs));
  EXPECT_EQ(RouterCounter("memo_hits"), 0);
  // The oldest were evicted; the newest still answer.
  ASSERT_FALSE(client_->Call(uploads.front()).ok());
  EXPECT_EQ(router_->stats().memo_hits, 0);
  ASSERT_FALSE(client_->Call(uploads.back()).ok());
  EXPECT_EQ(router_->stats().memo_hits, 1);
  EXPECT_EQ(RouterCounter("memo_entries"),
            static_cast<int64_t>(service::kRetainedJobs));
}

}  // namespace
}  // namespace adahealth
