// In-process cluster coverage for the sharding router: consistent-hash
// placement, global↔local job-id rewriting, cross-shard stats
// aggregation, and the failover invariant — when a shard primary dies
// mid-conversation the follower is promoted, jobs are re-driven, every
// job completes exactly once, and reports stay byte-identical to a
// direct AnalysisSession run. Also pinned: ingest is forwarded at most
// once when its cohort's owner dies, Stop() wakes a client parked in a
// forwarded `result` wait, a finished upload is re-driven by its
// fingerprint alone, and both job tables retire finished entries past
// kRetainedJobs. The router serves every client from one loop thread:
// idle and half-line clients cost it no thread, parked, slow or
// flooding clients hold up no one else, and a pipelined batch does not
// nest dispatch. Shard calls reuse kept connections, and a cached
// upload reaches its shard as a fingerprint only.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "common/check.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/report.h"
#include "core/session.h"
#include "kdb/database.h"
#include "service/client.h"
#include "service/fingerprint.h"
#include "service/net_socket.h"
#include "service/protocol.h"
#include "service/router.h"
#include "service/server.h"

namespace adahealth {
namespace {

using common::Json;
using common::StatusCode;

/// The same small fast synthetic submit body the server tests use.
Json::Object SubmitBody(int64_t seed, const std::string& dataset_id) {
  Json::Object synthetic;
  synthetic["patients"] = static_cast<int64_t>(100);
  synthetic["exam_types"] = static_cast<int64_t>(20);
  synthetic["profiles"] = static_cast<int64_t>(3);
  synthetic["seed"] = seed;
  Json::Object options;
  options["sample_fraction"] = 0.4;
  options["candidate_ks"] = Json(Json::Array{Json(3), Json(4)});
  options["cv_folds"] = static_cast<int64_t>(4);
  options["restarts"] = static_cast<int64_t>(1);
  Json::Object body;
  body["verb"] = "submit";
  body["synthetic"] = Json(std::move(synthetic));
  body["dataset_id"] = dataset_id;
  body["options"] = Json(std::move(options));
  return body;
}

/// A CSV upload with the same fast options as SubmitBody.
Json::Object CsvSubmitBody(const std::string& csv,
                           const std::string& dataset_id) {
  Json::Object body = SubmitBody(0, dataset_id);
  body.erase("synthetic");
  body["csv"] = csv;
  return body;
}

/// A records CSV of `patients` patients whose integers are zero-padded
/// to 12 digits: the padding makes the upload large without making the
/// dataset any larger ("000000000007" parses as 7).
std::string PaddedCsv(uint64_t seed, int patients) {
  common::Rng rng(seed);
  std::string csv = "patient_id,exam_type,day\n";
  char row[64];
  for (int patient = 0; patient < patients; ++patient) {
    for (int64_t i = rng.UniformInt(3, 10); i > 0; --i) {
      std::snprintf(row, sizeof(row), "%012d,exam%lld,%012lld\n", patient,
                    static_cast<long long>(rng.UniformInt(0, 19)),
                    static_cast<long long>(rng.UniformInt(0, 364)));
      csv += row;
    }
  }
  return csv;
}

Json::Object ResultRequest(int64_t job_id) {
  Json::Object request;
  request["verb"] = "result";
  request["job_id"] = job_id;
  request["wait_millis"] = 60000.0;
  return request;
}

std::unique_ptr<service::AnalysisServer> StartShardServer(
    service::ServerRole role, uint16_t replicate_to_port = 0,
    bool start_paused = false) {
  service::ServerOptions options;
  options.role = role;
  options.replicate_to_port = replicate_to_port;
  options.scheduler.max_workers = 2;
  options.scheduler.start_paused = start_paused;
  auto server = std::make_unique<service::AnalysisServer>(std::move(options));
  ADA_CHECK(server->Start().ok());
  return server;
}

/// Router options with the prober effectively disabled so tests drive
/// failover deterministically through forwarding failures.
service::RouterOptions QuietRouterOptions() {
  service::RouterOptions options;
  options.probe_interval_millis = 60000.0;
  return options;
}

service::AnalysisClient Connect(uint16_t port) {
  auto client = service::AnalysisClient::Connect(port);
  ADA_CHECK(client.ok());
  return std::move(client).value();
}

TEST(RouterTest, StartRequiresAtLeastOneShard) {
  service::Router router(service::RouterOptions{});
  EXPECT_EQ(router.Start().code(), StatusCode::kInvalidArgument);
}

TEST(RouterTest, ShardPlacementIsDeterministicAndSpreads) {
  // Placement consults only the ring, never the shards, so the
  // configured ports do not need live servers behind them.
  service::RouterOptions options = QuietRouterOptions();
  for (uint16_t port : {9901, 9902, 9903, 9904}) {
    options.shards.push_back(service::ShardEndpoints{port, 0});
  }
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  std::set<size_t> used;
  for (int i = 0; i < 32; ++i) {
    std::string fingerprint = "fingerprint-" + std::to_string(i);
    size_t shard = router.ShardFor(fingerprint);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(router.ShardFor(fingerprint), shard);  // Stable.
    used.insert(shard);
  }
  // 32 distinct keys across 4 shards × 64 vnodes: a single-shard
  // pile-up would mean the ring is broken, not unlucky.
  EXPECT_GT(used.size(), 1u);
  router.Stop();
}

TEST(RouterTest, RoutesJobsRewritesIdsAndAggregatesStats) {
  auto shard0 = StartShardServer(service::ServerRole::kPrimary);
  auto shard1 = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard0->port(), 0});
  options.shards.push_back(service::ShardEndpoints{shard1->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  auto client = Connect(router.port());
  auto ping = client.Call("ping");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->Find("service")->AsString(), "ada-health-router");

  // Two distinct jobs: global ids are allocated by the router in
  // submission order regardless of which shard ran them.
  auto first = client.Call(SubmitBody(21, "routed"));
  ASSERT_TRUE(first.ok());
  auto second = client.Call(SubmitBody(22, "routed"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->Find("job_id")->AsInt(), 1);
  EXPECT_EQ(second->Find("job_id")->AsInt(), 2);

  auto first_result = client.Call(ResultRequest(1));
  ASSERT_TRUE(first_result.ok());
  EXPECT_EQ(first_result->Find("state")->AsString(), "done");
  auto second_result = client.Call(ResultRequest(2));
  ASSERT_TRUE(second_result.ok());
  EXPECT_EQ(second_result->Find("state")->AsString(), "done");
  EXPECT_NE(first_result->Find("report")->AsString(),
            second_result->Find("report")->AsString());

  // The repeat of job 1 hashes to the same shard and hits its cache.
  auto repeat = client.Call(SubmitBody(21, "routed"));
  ASSERT_TRUE(repeat.ok());
  auto repeat_result = client.Call(ResultRequest(repeat->Find("job_id")->AsInt()));
  ASSERT_TRUE(repeat_result.ok());
  EXPECT_TRUE(repeat_result->Find("cache_hit")->AsBool());
  EXPECT_EQ(repeat_result->Find("report")->AsString(),
            first_result->Find("report")->AsString());

  // Cross-shard aggregation: the totals roll-up must agree with the
  // cluster-wide ground truth (2 unique sessions, 1 cache hit).
  auto stats = client.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Find("totals")->Find("sessions_executed")->AsInt(), 2);
  EXPECT_EQ(stats->Find("totals")->Find("cache")->Find("hits")->AsInt(), 1);
  EXPECT_EQ(stats->Find("router")->Find("submitted")->AsInt(), 3);
  EXPECT_EQ(stats->Find("router")->Find("completed")->AsInt(), 3);
  EXPECT_EQ(stats->Find("shards")->AsArray().size(), 2u);

  service::RouterStats router_stats = router.stats();
  EXPECT_EQ(router_stats.submitted, 3);
  EXPECT_EQ(router_stats.failovers, 0);
  router.Stop();
  shard0->Stop();
  shard1->Stop();
}

TEST(RouterTest, FailoverServesReplicatedResultExactlyOnce) {
  auto follower = StartShardServer(service::ServerRole::kFollower);
  auto primary =
      StartShardServer(service::ServerRole::kPrimary, follower->port());
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(
      service::ShardEndpoints{primary->port(), follower->port()});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  auto client = Connect(router.port());
  auto submitted = client.Call(SubmitBody(23, "failover"));
  ASSERT_TRUE(submitted.ok());
  int64_t job_id = submitted->Find("job_id")->AsInt();
  auto before = client.Call(ResultRequest(job_id));
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->Find("state")->AsString(), "done");
  EXPECT_FALSE(before->Find("cache_hit")->AsBool());

  // Make sure the committed result reached the follower, then kill
  // the primary. The next forward hits a refused connect, which runs
  // the verified-failover path inline.
  ASSERT_NE(primary->shipper(), nullptr);
  ASSERT_TRUE(primary->shipper()->WaitUntilDrained(10000.0));
  primary->Stop();

  auto after = client.Call(ResultRequest(job_id));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->Find("state")->AsString(), "done");
  // Exactly-once: the re-driven job is answered from the replicated
  // cache, not a second session run...
  EXPECT_TRUE(after->Find("cache_hit")->AsBool());
  EXPECT_EQ(follower->scheduler().stats().sessions_executed, 0);
  // ...and the report is byte-identical to the pre-failover one.
  EXPECT_EQ(after->Find("report")->AsString(),
            before->Find("report")->AsString());

  service::RouterStats stats = router.stats();
  EXPECT_EQ(stats.failovers, 1);
  EXPECT_EQ(stats.redriven, 1);
  EXPECT_EQ(stats.completed, 1);

  // The promoted follower accepts fresh work under the same shard.
  auto fresh = client.Call(SubmitBody(24, "failover"));
  ASSERT_TRUE(fresh.ok());
  auto fresh_result =
      client.Call(ResultRequest(fresh->Find("job_id")->AsInt()));
  ASSERT_TRUE(fresh_result.ok());
  EXPECT_EQ(fresh_result->Find("state")->AsString(), "done");

  auto health = client.Call("health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->Find("role")->AsString(), "router");
  EXPECT_EQ(health->Find("failovers")->AsInt(), 1);
  const Json& shard_entry = health->Find("shards")->AsArray().at(0);
  EXPECT_TRUE(shard_entry.Find("using_follower")->AsBool());
  EXPECT_TRUE(shard_entry.Find("alive")->AsBool());
  EXPECT_EQ(shard_entry.Find("active_port")->AsInt(),
            static_cast<int64_t>(follower->port()));

  router.Stop();
  follower->Stop();
}

TEST(RouterTest, FailoverReportMatchesDirectSessionRun) {
  // The acceptance bar: a report served through submit → replicate →
  // promote → re-drive must be byte-identical to running the session
  // directly on the same request.
  auto follower = StartShardServer(service::ServerRole::kFollower);
  auto primary =
      StartShardServer(service::ServerRole::kPrimary, follower->port());
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(
      service::ShardEndpoints{primary->port(), follower->port()});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  Json::Object body = SubmitBody(25, "ground-truth");
  auto direct_request = service::BuildJobRequest(Json(Json::Object(body)));
  ASSERT_TRUE(direct_request.ok());
  kdb::Database db;
  core::AnalysisSession session(&db);
  const dataset::Taxonomy* taxonomy = direct_request->taxonomy.has_value()
                                          ? &*direct_request->taxonomy
                                          : nullptr;
  auto direct = session.Run(direct_request->log, taxonomy,
                            direct_request->options);
  ASSERT_TRUE(direct.ok());
  std::string direct_report = core::RenderSessionReport(
      direct.value(), direct_request->options.dataset_id);

  auto client = Connect(router.port());
  auto submitted = client.Call(body);
  ASSERT_TRUE(submitted.ok());
  int64_t job_id = submitted->Find("job_id")->AsInt();
  auto before = client.Call(ResultRequest(job_id));
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->Find("state")->AsString(), "done");
  EXPECT_EQ(before->Find("report")->AsString(), direct_report);

  ASSERT_TRUE(primary->shipper()->WaitUntilDrained(10000.0));
  primary->Stop();
  auto after = client.Call(ResultRequest(job_id));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->Find("report")->AsString(), direct_report);

  router.Stop();
  follower->Stop();
}

TEST(RouterTest, ShardWithoutFollowerDiesAndRingAbsorbsNewWork) {
  auto shard0 = StartShardServer(service::ServerRole::kPrimary);
  auto shard1 = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard0->port(), 0});
  options.shards.push_back(service::ShardEndpoints{shard1->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  auto client = Connect(router.port());
  auto submitted = client.Call(SubmitBody(26, "no-replica"));
  ASSERT_TRUE(submitted.ok());
  int64_t job_id = submitted->Find("job_id")->AsInt();
  ASSERT_TRUE(client.Call(ResultRequest(job_id)).ok());

  // Kill the shard that owns the job. It has no follower, so the
  // failure path marks the shard dead instead of promoting.
  size_t owner = router.ShardFor(submitted->Find("fingerprint")->AsString());
  (owner == 0 ? shard0 : shard1)->Stop();

  auto status_request = ResultRequest(job_id);
  status_request["verb"] = "status";
  status_request.erase("wait_millis");
  auto lost = client.Call(status_request);
  EXPECT_EQ(lost.status().code(), StatusCode::kUnavailable);

  // New submits ride the ring past the dead shard to the survivor.
  auto fresh = client.Call(SubmitBody(27, "no-replica"));
  ASSERT_TRUE(fresh.ok());
  auto fresh_result =
      client.Call(ResultRequest(fresh->Find("job_id")->AsInt()));
  ASSERT_TRUE(fresh_result.ok());
  EXPECT_EQ(fresh_result->Find("state")->AsString(), "done");

  EXPECT_EQ(router.stats().dead_shards, 1);
  router.Stop();
  shard0->Stop();
  shard1->Stop();
}

TEST(RouterTest, CohortIngestAndSubmitPinToTheOwningShard) {
  // Streaming cohorts route on the cohort *name* ("cohort/<name>"), not
  // the dataset fingerprint: every ingest batch and every delta submit
  // must land on the one shard that holds the accumulated records.
  auto shard0 = StartShardServer(service::ServerRole::kPrimary);
  auto shard1 = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard0->port(), 0});
  options.shards.push_back(service::ShardEndpoints{shard1->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  // The routing key is the cohort name on the same ring fingerprints
  // use, so placement is deterministic before any traffic flows.
  const size_t owner = router.ShardFor("cohort/pinned");
  ASSERT_LT(owner, 2u);
  EXPECT_EQ(router.ShardFor("cohort/pinned"), owner);

  auto make_batch = [](int first_patient, int count) {
    Json::Array records;
    for (int i = 0; i < count; ++i) {
      Json::Object record;
      record["patient"] = static_cast<int64_t>(first_patient + i);
      record["exam_type"] = "exam-" + std::to_string(i % 4);
      record["day"] = static_cast<int64_t>(i % 30);
      records.push_back(Json(std::move(record)));
    }
    Json::Object body;
    body["verb"] = "ingest";
    body["cohort"] = "pinned";
    body["records"] = Json(std::move(records));
    return body;
  };

  auto client = Connect(router.port());
  auto first = client.Call(make_batch(0, 40));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Find("generation")->AsInt(), 1);
  auto second = client.Call(make_batch(40, 40));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->Find("generation")->AsInt(), 2);
  EXPECT_EQ(second->Find("total_records")->AsInt(), 80);

  // Both batches accumulated on the owning shard; the other shard
  // never heard of the cohort.
  service::AnalysisServer& owning = owner == 0 ? *shard0 : *shard1;
  service::AnalysisServer& other = owner == 0 ? *shard1 : *shard0;
  EXPECT_EQ(owning.cohort_store().stats().cohorts, 1);
  EXPECT_EQ(other.cohort_store().stats().cohorts, 0);

  // The delta submit follows the same key to where the data lives, and
  // its fingerprint is versioned with the snapshot generation.
  Json::Object submit;
  submit["verb"] = "submit";
  submit["cohort"] = "pinned";
  Json::Object job_options;
  job_options["candidate_ks"] = Json(Json::Array{Json(3), Json(4)});
  job_options["cv_folds"] = static_cast<int64_t>(4);
  job_options["restarts"] = static_cast<int64_t>(1);
  submit["options"] = Json(std::move(job_options));
  auto submitted = client.Call(submit);
  ASSERT_TRUE(submitted.ok());
  EXPECT_EQ(
      submitted->Find("fingerprint")->AsString().rfind("pinned@2/", 0), 0u);

  auto result = client.Call(ResultRequest(submitted->Find("job_id")->AsInt()));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Find("state")->AsString(), "done");
  EXPECT_EQ(owning.scheduler().stats().sessions_executed, 1);
  EXPECT_EQ(other.scheduler().stats().sessions_executed, 0);

  router.Stop();
  shard0->Stop();
  shard1->Stop();
}

TEST(RouterTest, IngestIsForwardedAtMostOnceWhenTheOwnerDies) {
  auto shard0 = StartShardServer(service::ServerRole::kPrimary);
  auto shard1 = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard0->port(), 0});
  options.shards.push_back(service::ShardEndpoints{shard1->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  Json::Object batch;
  batch["verb"] = "ingest";
  batch["cohort"] = "c";
  Json::Object record;
  record["patient"] = static_cast<int64_t>(0);
  record["exam_type"] = "exam-0";
  record["day"] = static_cast<int64_t>(1);
  batch["records"] = Json(Json::Array{Json(std::move(record))});

  auto client = Connect(router.port());
  auto committed = client.Call(batch);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  const int64_t generation = committed->Find("generation")->AsInt();
  EXPECT_EQ(generation, 1);

  // The owner has no follower: its death leaves nowhere to re-drive.
  const size_t owner = router.ShardFor("cohort/c");
  (owner == 0 ? shard0 : shard1)->Stop();
  service::AnalysisServer& survivor = owner == 0 ? *shard1 : *shard0;

  const int64_t forwarded_before = router.stats().forwarded;
  auto lost = client.Call(batch);
  EXPECT_EQ(lost.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(lost.status().message().find("expected_generation"),
            std::string::npos)
      << lost.status().ToString();
  // One forward plus one failover-verification probe: no resend, and
  // no re-route onto the surviving shard.
  EXPECT_EQ(router.stats().forwarded, forwarded_before + 2);
  EXPECT_EQ(router.stats().dead_shards, 1);
  EXPECT_EQ(survivor.cohort_store().stats().cohorts, 0);

  // The guarded retry now rides the ring to the survivor, which has
  // never seen the cohort, so the guard refuses it and nothing lands.
  batch["expected_generation"] = generation;
  auto retried = client.Call(batch);
  EXPECT_EQ(retried.status().code(), StatusCode::kFailedPrecondition)
      << retried.status().ToString();
  EXPECT_EQ(survivor.cohort_store().stats().cohorts, 0);

  router.Stop();
  shard0->Stop();
  shard1->Stop();
}

TEST(RouterTest, StopUnblocksAForwardedResultWait) {
  // A paused scheduler never finishes the job, so the `result` wait
  // stays parked on the shard until the router interrupts it.
  auto shard = StartShardServer(service::ServerRole::kPrimary,
                                /*replicate_to_port=*/0,
                                /*start_paused=*/true);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  auto client = Connect(router.port());
  auto submitted = client.Call(SubmitBody(28, "parked"));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  Json::Object wait = ResultRequest(submitted->Find("job_id")->AsInt());
  wait["wait_millis"] = 30000.0;

  common::StatusOr<Json> waited = common::UnavailableError("not called");
  std::thread waiter([&client, &wait, &waited] { waited = client.Call(wait); });
  // The submit was forward 1; wait until the `result` forward is out.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (router.stats().forwarded < 2 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(router.stats().forwarded, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto stop_start = std::chrono::steady_clock::now();
  router.Stop();
  const double stop_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - stop_start)
                                  .count();
  waiter.join();
  EXPECT_LT(stop_seconds, 2.0);
  EXPECT_FALSE(waited.ok());
  shard->Stop();
}

TEST(RouterTest, ClusterInternalVerbsRejectedAtTheFrontDoor) {
  auto shard = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  auto client = Connect(router.port());
  EXPECT_EQ(client.Call("promote").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Call("replicate").status().code(),
            StatusCode::kInvalidArgument);
  router.Stop();
  shard->Stop();
}

TEST(RouterTest, ClientRouteFingerprintRejectedOnEveryVerb) {
  auto shard = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  auto client = Connect(router.port());
  std::vector<Json::Object> requests;
  requests.push_back(SubmitBody(25, "forged"));
  for (const char* verb : {"ingest", "status", "result", "cancel", "stats",
                           "health", "ping", "shutdown"}) {
    Json::Object request;
    request["verb"] = verb;
    request["job_id"] = static_cast<int64_t>(1);
    request["cohort"] = "forged";
    requests.push_back(std::move(request));
  }
  for (Json::Object& request : requests) {
    request["route_fingerprint"] = "0123456789abcdef";
    auto response = client.Call(request);
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument)
        << request["verb"].AsString();
  }
  // Nothing reached the shard, and the router still serves (the
  // rejected shutdown did not stop it).
  EXPECT_EQ(shard->scheduler().stats().submitted, 0);
  EXPECT_TRUE(client.Call("ping").ok());
  router.Stop();
  shard->Stop();
}

TEST(RouterTest, RepeatSubmitIsAnsweredDoneInTheSubmitReply) {
  auto shard = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  auto client = Connect(router.port());
  auto first = client.Call(SubmitBody(26, "hot"));
  ASSERT_TRUE(first.ok());
  auto first_result = client.Call(ResultRequest(first->Find("job_id")->AsInt()));
  ASSERT_TRUE(first_result.ok());
  ASSERT_EQ(first_result->Find("state")->AsString(), "done");

  // The router forwarded its fingerprint; the shard's cache answers the
  // repeat at admission, in the submit reply, with the global id.
  auto repeat = client.Call(SubmitBody(26, "hot"));
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->Find("job_id")->AsInt(), 2);
  EXPECT_EQ(repeat->Find("state")->AsString(), "done");
  EXPECT_TRUE(repeat->Find("cache_hit")->AsBool());
  EXPECT_EQ(repeat->Find("fingerprint")->AsString(),
            first->Find("fingerprint")->AsString());
  auto repeat_result = client.Call(ResultRequest(2));
  ASSERT_TRUE(repeat_result.ok());
  EXPECT_EQ(repeat_result->Find("report")->AsString(),
            first_result->Find("report")->AsString());

  // Exact counters: one session, one miss, one hit; both routes
  // completed once each.
  service::SchedulerStats stats = shard->scheduler().stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.sessions_executed, 1);
  EXPECT_EQ(stats.cache_served, 1);
  EXPECT_EQ(shard->scheduler().cache().hits(), 1);
  EXPECT_EQ(shard->scheduler().cache().misses(), 1);
  EXPECT_EQ(router.stats().submitted, 2);
  EXPECT_EQ(router.stats().completed, 2);
  router.Stop();
  shard->Stop();
}

TEST(RouterTest, FinishedUploadIsRedrivenWithoutItsDataset) {
  // The follower refuses any line half as long as the upload, so the
  // re-drive can only reach it without the dataset.
  const std::string csv = PaddedCsv(7, 150);
  service::ServerOptions follower_options;
  follower_options.role = service::ServerRole::kFollower;
  follower_options.scheduler.max_workers = 2;
  follower_options.max_line_bytes = csv.size() / 2;
  auto follower =
      std::make_unique<service::AnalysisServer>(std::move(follower_options));
  ASSERT_TRUE(follower->Start().ok());
  auto primary =
      StartShardServer(service::ServerRole::kPrimary, follower->port());
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(
      service::ShardEndpoints{primary->port(), follower->port()});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  auto client = Connect(router.port());
  auto submitted = client.Call(CsvSubmitBody(csv, "upload"));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  const int64_t job_id = submitted->Find("job_id")->AsInt();
  auto before = client.Call(ResultRequest(job_id));
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->Find("state")->AsString(), "done");
  // The replicated entry itself fits the follower's line cap.
  ASSERT_LT(before->Find("report")->AsString().size() +
                before->Find("summary")->AsString().size() + 4096,
            csv.size() / 2);

  ASSERT_TRUE(primary->shipper()->WaitUntilDrained(10000.0));
  primary->Stop();
  auto after = client.Call(ResultRequest(job_id));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->Find("state")->AsString(), "done");
  EXPECT_TRUE(after->Find("cache_hit")->AsBool());
  EXPECT_EQ(after->Find("report")->AsString(),
            before->Find("report")->AsString());
  // The follower admitted the job from its cache: no session, no
  // dataset.
  const service::SchedulerStats follower_stats =
      follower->scheduler().stats();
  EXPECT_EQ(follower_stats.submitted, 1);
  EXPECT_EQ(follower_stats.cache_served, 1);
  EXPECT_EQ(follower_stats.sessions_executed, 0);
  EXPECT_EQ(router.stats().redriven, 1);
  EXPECT_EQ(router.stats().completed, 1);
  router.Stop();
  follower->Stop();
}

TEST(RouterTest, UnreplicatedFinishedJobAnswersLostResultAfterFailover) {
  // The primary does not replicate, so its follower never holds the
  // result of the job that finished before the primary died.
  auto follower = StartShardServer(service::ServerRole::kFollower);
  auto primary = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(
      service::ShardEndpoints{primary->port(), follower->port()});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  auto client = Connect(router.port());
  auto submitted = client.Call(SubmitBody(29, "unreplicated"));
  ASSERT_TRUE(submitted.ok());
  const int64_t job_id = submitted->Find("job_id")->AsInt();
  auto before = client.Call(ResultRequest(job_id));
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->Find("state")->AsString(), "done");
  primary->Stop();

  // No second completion: the job answers the documented status, on
  // every job verb, and nothing ran or was admitted on the follower.
  auto lost = client.Call(ResultRequest(job_id));
  EXPECT_EQ(lost.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(lost.status().message(),
            "result of job " + std::to_string(job_id) +
                " was not replicated before shard 0 failed over; resubmit");
  Json::Object status_request = ResultRequest(job_id);
  status_request["verb"] = "status";
  EXPECT_EQ(client.Call(status_request).status().message(),
            lost.status().message());
  service::RouterStats stats = router.stats();
  EXPECT_EQ(stats.failovers, 1);
  EXPECT_EQ(stats.redriven, 0);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(follower->scheduler().stats().submitted, 0);
  EXPECT_EQ(follower->scheduler().stats().sessions_executed, 0);

  // A resubmit runs on the promoted follower and reproduces the report.
  auto again = client.Call(SubmitBody(29, "unreplicated"));
  ASSERT_TRUE(again.ok());
  auto again_result =
      client.Call(ResultRequest(again->Find("job_id")->AsInt()));
  ASSERT_TRUE(again_result.ok());
  EXPECT_EQ(again_result->Find("report")->AsString(),
            before->Find("report")->AsString());
  router.Stop();
  follower->Stop();
}

TEST(RouterTest, RetentionBoundsRoutesAndShardJobs) {
  auto shard = StartShardServer(service::ServerRole::kPrimary,
                                /*replicate_to_port=*/0,
                                /*start_paused=*/true);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  // The hot upload is cached up front, so each of its submits finishes
  // in its own reply even though the shard runs nothing.
  const Json::Object hot =
      CsvSubmitBody("patient_id,exam_type,day\n0,a,1\n1,b,2\n", "hot");
  auto hot_request = service::BuildJobRequest(Json(Json::Object(hot)));
  ASSERT_TRUE(hot_request.ok());
  service::CachedAnalysis entry;
  entry.fingerprint =
      service::DatasetFingerprint(hot_request->log, hot_request->options);
  entry.dataset_id = "hot";
  entry.summary = "summary";
  entry.report = "report";
  shard->scheduler().CommitCacheEntry(entry, /*fire_hook=*/false);

  auto client = Connect(router.port());
  auto in_flight = client.Call(SubmitBody(30, "in-flight"));
  ASSERT_TRUE(in_flight.ok());
  const int64_t in_flight_id = in_flight->Find("job_id")->AsInt();
  ASSERT_EQ(in_flight->Find("state")->AsString(), "queued");
  constexpr int64_t kExtra = 5;
  const int64_t hits = static_cast<int64_t>(service::kRetainedJobs) + kExtra;
  int64_t first_hit = 0;
  for (int64_t i = 0; i < hits; ++i) {
    auto hit = client.Call(hot);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ASSERT_EQ(hit->Find("state")->AsString(), "done");
    if (i == 0) first_hit = hit->Find("job_id")->AsInt();
  }

  // Both tables: at most the bound plus the one in-flight job, the
  // oldest finished entries retired.
  const int64_t bound = static_cast<int64_t>(service::kRetainedJobs) + 1;
  auto stats = client.Call("stats");
  ASSERT_TRUE(stats.ok());
  const Json& router_stats = *stats->Find("router");
  EXPECT_LE(router_stats.Find("routes")->AsInt(), bound);
  EXPECT_EQ(router_stats.Find("retired")->AsInt(), kExtra + 1);
  const Json& shard_stats =
      *stats->Find("shards")->AsArray().at(0).Find("stats");
  EXPECT_LE(shard_stats.Find("jobs_retained")->AsInt(), bound);
  EXPECT_EQ(shard_stats.Find("jobs_retired")->AsInt(), kExtra + 1);
  auto health = client.Call("health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->Find("retired")->AsInt(), kExtra + 1);

  // A retired id is "expired"; an id never issued keeps its message.
  Json::Object status_request = ResultRequest(first_hit);
  status_request["verb"] = "status";
  auto retired = client.Call(status_request);
  EXPECT_EQ(retired.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(retired.status().message().rfind(
                "job " + std::to_string(first_hit) + " expired", 0),
            0u)
      << retired.status().ToString();
  const int64_t never = first_hit + hits + 100;
  status_request["job_id"] = never;
  EXPECT_EQ(client.Call(status_request).status().message(),
            "no job with id " + std::to_string(never));

  // The in-flight job was never retired: it still runs and answers.
  shard->scheduler().Resume();
  auto finished = client.Call(ResultRequest(in_flight_id));
  ASSERT_TRUE(finished.ok()) << finished.status().ToString();
  EXPECT_EQ(finished->Find("state")->AsString(), "done");
  router.Stop();
  shard->Stop();
}

TEST(RouterTest, RouteRetiredOnTheShardAnswersExpiredWithTheClientId) {
  auto shard = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());
  // Every session fails at once, so the shard finishes (and, past the
  // bound, retires) jobs the router never sees terminal.
  common::FailpointConfig fail;
  fail.code = StatusCode::kInternal;
  common::ScopedFailpoint failing("service.worker.session", fail);
  // One warning per firing would flood the log.
  struct QuietLog {
    common::LogLevel saved = common::LogThreshold();
    QuietLog() { common::SetLogThreshold(common::LogLevel::kError); }
    ~QuietLog() { common::SetLogThreshold(saved); }
  } quiet;

  // Jobs submitted straight to the shard shift its local ids away from
  // the router's global ones.
  auto direct = Connect(shard->port());
  constexpr int64_t kDirect = 3;
  for (int64_t i = 0; i < kDirect; ++i) {
    ASSERT_TRUE(direct.Call(SubmitBody(40, "direct")).ok());
  }
  auto client = Connect(router.port());
  const int64_t submits = static_cast<int64_t>(service::kRetainedJobs) + 8;
  for (int64_t i = 0; i < submits; ++i) {
    auto submitted = client.Call(SubmitBody(41, "unpolled"));
    // A full queue sheds the submit; let the workers drain it.
    while (submitted.status().code() == StatusCode::kResourceExhausted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      submitted = client.Call(SubmitBody(41, "unpolled"));
    }
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    if (i == 0) {
      ASSERT_EQ(submitted->Find("job_id")->AsInt(), 1);
    }
  }
  // Wait until the shard has finished everything; its admissions have
  // retired the oldest finished jobs, router job 1 (local id 4) among
  // them.
  const int64_t total = submits + kDirect;
  for (int spins = 0; spins < 30000; ++spins) {
    const service::SchedulerStats stats = shard->scheduler().stats();
    if (stats.failed + stats.completed == total) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(shard->scheduler().stats().retired, kDirect);

  Json::Object status_request = ResultRequest(1);
  status_request["verb"] = "status";
  auto polled = client.Call(status_request);
  EXPECT_EQ(polled.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(polled.status().message().rfind("job 1 expired:", 0), 0u)
      << polled.status().ToString();
  // The route was queued for retirement: the next admission frees it,
  // so the table is back within its bound plus nothing in flight.
  auto retired_before = client.Call("stats");
  ASSERT_TRUE(retired_before.ok());
  const int64_t before =
      retired_before->Find("router")->Find("retired")->AsInt();
  auto one_more = client.Call(SubmitBody(42, "after"));
  ASSERT_TRUE(one_more.ok()) << one_more.status().ToString();
  auto stats = client.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Find("router")->Find("retired")->AsInt(), before + 1);
  // Asked again, the router answers from the route without the shard.
  auto again = client.Call(ResultRequest(1));
  EXPECT_EQ(again.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(again.status().message().rfind("job 1 expired:", 0), 0u)
      << again.status().ToString();
  router.Stop();
  shard->Stop();
}

TEST(RouterTest, OnlyAnExpiredAnswerForTheForwardedIdCountsAsExpired) {
  // "No job with id N" (say, from a promoted follower that never saw
  // the id) is not an expiry, and neither is another id's expiry.
  EXPECT_TRUE(service::IsJobExpiredError(service::JobNotFoundError(4, 10), 4));
  EXPECT_FALSE(
      service::IsJobExpiredError(service::JobNotFoundError(4, 10), 40));
  EXPECT_FALSE(
      service::IsJobExpiredError(service::JobNotFoundError(12, 10), 12));
  EXPECT_FALSE(service::IsJobExpiredError(
      common::UnavailableError("job 4 expired: no"), 4));
}

TEST(RouterTest, UploadWithAnIdBeyond32BitsIsRejectedAtTheRouter) {
  auto shard = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  auto client = Connect(router.port());
  auto rejected = client.Call(CsvSubmitBody(
      "patient_id,exam_type,day\n3000000000,HbA1c,1\n", "hostile"));
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("'patient_id'"),
            std::string::npos)
      << rejected.status().ToString();
  // The router is still up, and nothing reached the shard.
  EXPECT_TRUE(client.Call("ping").ok());
  EXPECT_EQ(shard->scheduler().stats().submitted, 0);
  router.Stop();
  shard->Stop();
}

TEST(RouterTest, OversizedSyntheticSubmitIsAnsweredAndSoIsTheLineBehindIt) {
  auto shard = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  // 400 patients x 1e9 expected records. The router's preparation died
  // of bad_alloc in the pool, so the parked client, and every line
  // pipelined behind it, went unanswered.
  auto client = service::AnalysisClient::Connect(
      router.port(), /*recv_timeout_millis=*/10000);
  ASSERT_TRUE(client.ok());
  Json::Object synthetic;
  synthetic["patients"] = static_cast<int64_t>(400);
  synthetic["exam_types"] = static_cast<int64_t>(30);
  synthetic["profiles"] = static_cast<int64_t>(4);
  synthetic["mean_records"] = 1e9;
  Json::Object oversized;
  oversized["verb"] = "submit";
  oversized["synthetic"] = Json(std::move(synthetic));
  Json::Object ping;
  ping["verb"] = "ping";
  auto replies = client->CallPipelined({oversized, ping});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(replies[0].status().message().find("'mean_records'"),
            std::string::npos)
      << replies[0].status().ToString();
  EXPECT_TRUE(replies[1].ok()) << replies[1].status().ToString();
  EXPECT_EQ(shard->scheduler().stats().submitted, 0);
  router.Stop();
  shard->Stop();
}

TEST(RouterTest, ThrowingPreparationIsAnsweredAndSoIsTheLineBehindIt) {
  auto shard = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());
  auto client = service::AnalysisClient::Connect(
      router.port(), /*recv_timeout_millis=*/10000);
  ASSERT_TRUE(client.ok());

  Json::Object synthetic;
  synthetic["patients"] = static_cast<int64_t>(40);
  synthetic["exam_types"] = static_cast<int64_t>(12);
  Json::Object submit;
  submit["verb"] = "submit";
  submit["synthetic"] = Json(std::move(synthetic));
  Json::Object ping;
  ping["verb"] = "ping";
  // A throw out of the pool task that prepares a csv/synthetic submit
  // used to be swallowed by the pool's trap: no reply was posted, so
  // the parked client and every line behind it hung.
  for (const auto& [what, code] :
       {std::pair<std::string, StatusCode>{"bad_alloc",
                                           StatusCode::kResourceExhausted},
        std::pair<std::string, StatusCode>{"boom", StatusCode::kInternal}}) {
    common::FailpointConfig config;
    config.kind = common::FailpointConfig::Kind::kThrow;
    config.message = what;
    config.max_activations = 1;
    common::ScopedFailpoint thrown("router.prepare", config);
    auto replies = client->CallPipelined({submit, ping});
    ASSERT_EQ(replies.size(), 2u) << what;
    EXPECT_EQ(replies[0].status().code(), code)
        << what << ": " << replies[0].status().ToString();
    EXPECT_TRUE(replies[1].ok()) << what << ": "
                                 << replies[1].status().ToString();
  }
  EXPECT_EQ(shard->scheduler().stats().submitted, 0);
  router.Stop();
  shard->Stop();
}

/// Threads of this process right now.
size_t ThreadCount() {
  size_t threads = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  return threads;
}

std::string Line(const Json::Object& request) {
  return Json(request).Dump() + "\n";
}

TEST(RouterTest, IdleClientsCostNoThread) {
  // Ping is answered by the router itself, so no shard needs to run.
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{9905, 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());
  auto first = Connect(router.port());
  ASSERT_TRUE(first.Call("ping").ok());
  const size_t threads_before = ThreadCount();

  std::vector<service::FileDescriptor> clients;
  for (int i = 0; i < 150; ++i) {
    auto connection = service::ConnectLoopback(router.port());
    ASSERT_TRUE(connection.ok()) << "client " << i;
    // The last 50 send half a request line and go quiet.
    if (i >= 100) {
      ASSERT_TRUE(service::SendAll(connection.value(), "{\"verb\":\"pi").ok());
    }
    clients.push_back(std::move(connection).value());
  }
  // A fresh client is answered behind all of them.
  auto fresh = Connect(router.port());
  auto pong = fresh.Call("ping");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->Find("service")->AsString(), "ada-health-router");
  EXPECT_EQ(ThreadCount(), threads_before);
  router.Stop();
}

TEST(RouterTest, ParkedWaitAndSlowLorisDoNotBlockOtherClients) {
  // Through the router: one client parked in a long forwarded `result`
  // wait and one slow-loris client mid-line, while other clients
  // complete full round trips.
  auto shard = StartShardServer(service::ServerRole::kPrimary,
                                /*replicate_to_port=*/0,
                                /*start_paused=*/true);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  auto a_connection = service::ConnectLoopback(router.port());
  ASSERT_TRUE(a_connection.ok());
  service::LineReader a_reader(a_connection.value());
  const Json::Object submit = SubmitBody(1, "router_park");
  ASSERT_TRUE(service::SendAll(a_connection.value(), Line(submit)).ok());
  auto a_submitted = a_reader.ReadLine();
  ASSERT_TRUE(a_submitted.ok());
  auto a_response = service::ParseResponse(a_submitted.value());
  ASSERT_TRUE(a_response.ok()) << a_response.status().ToString();
  const int64_t a_job = a_response->Find("job_id")->AsInt();
  const size_t threads_before = ThreadCount();
  ASSERT_TRUE(
      service::SendAll(a_connection.value(), Line(ResultRequest(a_job))).ok());

  auto loris = service::ConnectLoopback(router.port());
  ASSERT_TRUE(loris.ok());
  ASSERT_TRUE(service::SendAll(loris.value(), "{\"verb\":\"pi").ok());

  constexpr int kOthers = 8;
  std::vector<service::AnalysisClient> others;
  std::vector<int64_t> other_jobs;
  for (int i = 0; i < kOthers; ++i) {
    others.push_back(Connect(router.port()));
    ASSERT_TRUE(others.back().Call("ping").ok()) << i;
    auto submitted = others.back().Call(SubmitBody(1, "router_park"));
    ASSERT_TRUE(submitted.ok()) << i;
    other_jobs.push_back(submitted->Find("job_id")->AsInt());
    Json::Object status;
    status["verb"] = "status";
    status["job_id"] = other_jobs.back();
    auto state = others.back().Call(status);
    ASSERT_TRUE(state.ok()) << i;
    EXPECT_EQ(state->Find("state")->AsString(), "queued") << i;
  }
  // Ten clients are connected, one parked and one mid-line: none holds
  // a thread.
  EXPECT_EQ(ThreadCount(), threads_before);

  shard->scheduler().Resume();

  auto a_result_line = a_reader.ReadLine();
  ASSERT_TRUE(a_result_line.ok());
  auto a_result = service::ParseResponse(a_result_line.value());
  ASSERT_TRUE(a_result.ok()) << a_result.status().ToString();
  EXPECT_EQ(a_result->Find("state")->AsString(), "done");
  EXPECT_EQ(a_result->Find("job_id")->AsInt(), a_job);
  const std::string wire_report = a_result->Find("report")->AsString();
  for (int i = 0; i < kOthers; ++i) {
    auto result = others[i].Call(ResultRequest(other_jobs[i]));
    ASSERT_TRUE(result.ok()) << i;
    EXPECT_EQ(result->Find("state")->AsString(), "done") << i;
    EXPECT_EQ(result->Find("report")->AsString(), wire_report) << i;
  }

  ASSERT_TRUE(service::SendAll(loris.value(), "ng\"}\n").ok());
  service::LineReader loris_reader(loris.value());
  auto loris_line = loris_reader.ReadLine();
  ASSERT_TRUE(loris_line.ok());
  EXPECT_TRUE(service::ParseResponse(loris_line.value()).ok());

  auto request = service::BuildJobRequest(Json(submit));
  ASSERT_TRUE(request.ok());
  kdb::Database db;
  core::AnalysisSession session(&db);
  const dataset::Taxonomy* taxonomy =
      request->taxonomy.has_value() ? &*request->taxonomy : nullptr;
  auto direct = session.Run(request->log, taxonomy, request->options);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(wire_report, core::RenderSessionReport(
                             direct.value(), request->options.dataset_id));
  router.Stop();
  shard->Stop();
}

TEST(RouterTest, HundredsOfPipelinedClientsAnsweredInOrder) {
  auto shard = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());
  auto setup = Connect(router.port());
  auto submitted = setup.Call(SubmitBody(31, "pipelined"));
  ASSERT_TRUE(submitted.ok());
  const int64_t job = submitted->Find("job_id")->AsInt();
  ASSERT_TRUE(setup.Call(ResultRequest(job)).ok());

  // Every client writes its whole batch before any response is read:
  // local answers, a forwarded `status` that parks the connection, and
  // an error naming the client, in that order.
  constexpr int kClients = 120;
  const size_t threads_before = ThreadCount();
  std::vector<service::FileDescriptor> connections;
  for (int i = 0; i < kClients; ++i) {
    auto connection = service::ConnectLoopback(router.port());
    ASSERT_TRUE(connection.ok()) << "client " << i;
    Json::Object status;
    status["verb"] = "status";
    status["job_id"] = job;
    Json::Object unknown;
    unknown["verb"] = "nope" + std::to_string(i);
    const std::string batch = Line({{"verb", Json("ping")}}) + Line(status) +
                              Line(unknown) + Line(status) +
                              Line({{"verb", Json("ping")}});
    ASSERT_TRUE(service::SendAll(connection.value(), batch).ok()) << i;
    connections.push_back(std::move(connection).value());
  }
  for (int i = 0; i < kClients; ++i) {
    service::LineReader reader(connections[i]);
    std::vector<common::StatusOr<Json>> responses;
    for (int j = 0; j < 5; ++j) {
      auto line = reader.ReadLine();
      ASSERT_TRUE(line.ok()) << "client " << i << " response " << j;
      responses.push_back(service::ParseResponse(line.value()));
    }
    ASSERT_TRUE(responses[0].ok()) << i;
    EXPECT_EQ(responses[0]->Find("service")->AsString(), "ada-health-router");
    for (int j : {1, 3}) {
      ASSERT_TRUE(responses[j].ok()) << i << " " << j;
      EXPECT_EQ(responses[j]->Find("job_id")->AsInt(), job);
      EXPECT_EQ(responses[j]->Find("state")->AsString(), "done");
    }
    EXPECT_EQ(responses[2].status().message(),
              "unknown verb 'nope" + std::to_string(i) + "'");
    ASSERT_TRUE(responses[4].ok()) << i;
    EXPECT_EQ(responses[4]->Find("service")->AsString(), "ada-health-router");
  }
  EXPECT_EQ(ThreadCount(), threads_before);
  router.Stop();
  shard->Stop();
}

TEST(RouterTest, PipelinedRequestsAnsweredAtOnceDoNotNestDispatch) {
  // Each status for an unknown job is answered inside its own line's
  // dispatch; 20000 of them in one batch must not nest one dispatch per
  // line on the loop thread's stack.
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{9905, 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());
  constexpr int kRequests = 20000;
  std::vector<Json::Object> requests;
  for (int i = 0; i < kRequests; ++i) {
    Json::Object status;
    status["verb"] = "status";
    status["job_id"] = static_cast<int64_t>(1000 + i);
    requests.push_back(std::move(status));
  }
  auto client = Connect(router.port());
  auto responses = client.CallPipelined(requests);
  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(responses[i].status().code(), StatusCode::kNotFound) << i;
    ASSERT_EQ(responses[i].status().message(),
              "no job with id " + std::to_string(1000 + i))
        << i;
  }
  ASSERT_TRUE(client.Call("ping").ok());
  router.Stop();
}

TEST(RouterTest, UnreadPipelinedFloodDoesNotStallOtherClients) {
  // One client writes 6000 `health` requests and reads no answer. The
  // router answers them itself, each listing 64 shards, so ~80 MB of
  // output outgrows the socket buffers and piles up in the router.
  // Another client's ping is still answered promptly, and the flood's
  // answers all arrive once it reads. Each request is padded to ~500
  // bytes, so one read holds about a hundred of them.
  service::RouterOptions options = QuietRouterOptions();
  for (uint16_t port = 9905; port < 9905 + 64; ++port) {
    options.shards.push_back(service::ShardEndpoints{port, 0});
  }
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());
  constexpr int kRequests = 6000;
  auto flood = service::ConnectLoopback(router.port());
  ASSERT_TRUE(flood.ok());
  std::string batch;
  const std::string padded =
      "{" + std::string(500, ' ') + "\"verb\":\"health\"}\n";
  for (int i = 0; i < kRequests; ++i) batch += padded;
  ASSERT_TRUE(service::SendAll(flood.value(), batch).ok());

  auto other = service::AnalysisClient::Connect(router.port(),
                                                /*recv_timeout_millis=*/5000);
  ASSERT_TRUE(other.ok());
  const auto asked = std::chrono::steady_clock::now();
  auto pong = other->Call("ping");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_LT(std::chrono::steady_clock::now() - asked, std::chrono::seconds(5));

  service::LineReader reader(flood.value());
  for (int i = 0; i < kRequests; ++i) {
    auto line = reader.ReadLine();
    ASSERT_TRUE(line.ok()) << i;
    ASSERT_TRUE(service::ParseResponse(line.value()).ok()) << i;
  }
  router.Stop();
}

/// Connections the shard has accepted so far.
int64_t TotalConnections(service::AnalysisClient& shard_client) {
  auto stats = shard_client.Call("stats");
  ADA_CHECK(stats.ok());
  return stats->Find("server")->Find("total_connections")->AsInt();
}

TEST(RouterTest, ShardCallsReuseConnections) {
  auto shard = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());
  auto client = Connect(router.port());
  auto submitted = client.Call(SubmitBody(5, "reuse"));
  ASSERT_TRUE(submitted.ok());
  const int64_t job = submitted->Find("job_id")->AsInt();
  ASSERT_TRUE(client.Call(ResultRequest(job)).ok());

  auto direct = Connect(shard->port());
  const int64_t before = TotalConnections(direct);
  Json::Object status;
  status["verb"] = "status";
  status["job_id"] = job;
  for (int i = 0; i < 50; ++i) {
    auto state = client.Call(status);
    ASSERT_TRUE(state.ok()) << i;
    EXPECT_EQ(state->Find("state")->AsString(), "done") << i;
  }
  // 50 forwards one after another ride the kept connection.
  EXPECT_LE(TotalConnections(direct) - before, 1);
  router.Stop();
  shard->Stop();
}

TEST(RouterTest, CachedUploadIsAnsweredByItsFingerprintAlone) {
  auto shard = StartShardServer(service::ServerRole::kPrimary);
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard->port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());
  const Json::Object upload = CsvSubmitBody(PaddedCsv(7, 150), "offered");
  ASSERT_GT(Json(upload).Dump().size(), 16u * 1024);
  auto client = Connect(router.port());

  // A miss: the fingerprint is offered and refused, then the dataset
  // goes out.
  auto first = client.Call(upload);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(router.stats().forwarded, 2);
  auto first_result = client.Call(ResultRequest(first->Find("job_id")->AsInt()));
  ASSERT_TRUE(first_result.ok());
  ASSERT_EQ(first_result->Find("state")->AsString(), "done");
  EXPECT_EQ(router.stats().forwarded, 3);

  // A hit: the fingerprint alone is answered, so nothing else is sent.
  auto repeat = client.Call(upload);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_EQ(router.stats().forwarded, 4);
  EXPECT_EQ(repeat->Find("state")->AsString(), "done");
  EXPECT_TRUE(repeat->Find("cache_hit")->AsBool());
  auto repeat_result =
      client.Call(ResultRequest(repeat->Find("job_id")->AsInt()));
  ASSERT_TRUE(repeat_result.ok());
  EXPECT_EQ(repeat_result->Find("report")->AsString(),
            first_result->Find("report")->AsString());
  service::SchedulerStats stats = shard->scheduler().stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.sessions_executed, 1);
  EXPECT_EQ(shard->scheduler().cache().hits(), 1);
  EXPECT_EQ(shard->scheduler().cache().misses(), 1);
  router.Stop();
  shard->Stop();
}

TEST(RouterTest, ConnectionEvictedByTheShardIsNotReused) {
  service::ServerOptions shard_options;
  shard_options.scheduler.max_workers = 2;
  shard_options.idle_timeout_millis = 100.0;
  service::AnalysisServer shard(std::move(shard_options));
  ASSERT_TRUE(shard.Start().ok());
  service::RouterOptions options = QuietRouterOptions();
  options.shards.push_back(service::ShardEndpoints{shard.port(), 0});
  service::Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());
  auto client = Connect(router.port());
  auto submitted = client.Call(SubmitBody(6, "evicted"));
  ASSERT_TRUE(submitted.ok());
  const int64_t job = submitted->Find("job_id")->AsInt();
  Json::Object status;
  status["verb"] = "status";
  status["job_id"] = job;
  for (int round = 0; round < 3; ++round) {
    // The shard evicts the router's idle connection meanwhile.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    auto state = client.Call(status);
    ASSERT_TRUE(state.ok()) << round << ": " << state.status().ToString();
  }
  auto direct = Connect(shard.port());
  auto stats = direct.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->Find("server")->Find("idle_disconnects")->AsInt(), 3);
  // One call each, no failed attempt and no failover check in between.
  EXPECT_EQ(router.stats().forwarded, 4);
  EXPECT_EQ(router.stats().failovers, 0);
  router.Stop();
  shard.Stop();
}

}  // namespace
}  // namespace adahealth
