// The service's counters live in exactly one place: the per-instance
// stats its components keep and the `stats`/`health` verbs export.
// These tests pin the exported key sets of a shard primary (with a
// follower and a cohort directory) and of the router in front of it,
// and check that no service event leaks into the process-global
// pipeline registry, MetricsRegistry::Default().
#include <sys/stat.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "common/check.h"
#include "common/json.h"
#include "common/metrics.h"
#include "service/client.h"
#include "service/router.h"
#include "service/server.h"

namespace adahealth {
namespace {

using common::Json;
using KeySet = std::set<std::string>;

/// Dotted paths of every scalar leaf; array elements are indexed.
void Flatten(const Json& json, const std::string& prefix, KeySet& out) {
  auto join = [&prefix](const std::string& key) {
    return prefix.empty() ? key : prefix + "." + key;
  };
  if (json.is_object()) {
    for (const auto& [key, value] : json.AsObject()) {
      Flatten(value, join(key), out);
    }
  } else if (json.is_array()) {
    for (size_t i = 0; i < json.AsArray().size(); ++i) {
      Flatten(json.AsArray()[i], join(std::to_string(i)), out);
    }
  } else {
    out.insert(prefix);
  }
}

KeySet FlattenedCall(uint16_t port, const std::string& verb) {
  auto client = service::AnalysisClient::Connect(port);
  ADA_CHECK(client.ok());
  auto response = client->Call(verb);
  ADA_CHECK(response.ok());
  KeySet keys;
  Flatten(response.value(), "", keys);
  return keys;
}

KeySet Prefixed(const std::string& prefix, const KeySet& keys) {
  KeySet out;
  for (const std::string& key : keys) out.insert(prefix + key);
  return out;
}

KeySet Union(std::vector<KeySet> parts) {
  KeySet out;
  for (const KeySet& part : parts) out.insert(part.begin(), part.end());
  return out;
}

/// Reports each missing and each unexpected key by name.
void ExpectKeys(const KeySet& actual, const KeySet& expected,
                const std::string& what) {
  for (const std::string& key : expected) {
    EXPECT_EQ(actual.count(key), 1u) << what << " lacks " << key;
  }
  for (const std::string& key : actual) {
    EXPECT_EQ(expected.count(key), 1u) << what << " has extra " << key;
  }
}

std::string MakeScratchDir(const std::string& name) {
  std::string path = testing::TempDir() + "/service_stats_" + name;
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
  ::mkdir(path.c_str(), 0755);
  return path;
}

Json::Object SubmitBody(int64_t seed) {
  Json::Object synthetic;
  synthetic["patients"] = static_cast<int64_t>(60);
  synthetic["exam_types"] = static_cast<int64_t>(12);
  synthetic["seed"] = seed;
  Json::Object options;
  options["candidate_ks"] = Json(Json::Array{Json(3)});
  options["cv_folds"] = static_cast<int64_t>(3);
  options["restarts"] = static_cast<int64_t>(1);
  Json::Object body;
  body["verb"] = "submit";
  body["synthetic"] = Json(std::move(synthetic));
  body["options"] = Json(std::move(options));
  return body;
}

// Shard keys shared by `stats` and `health`.
const KeySet kIngestKeys = {
    "ingest.batches",     "ingest.records",         "ingest.cohorts",
    "ingest.generations", "ingest.warm_starts",     "ingest.cold_fallbacks",
    "ingest.snapshot_failures"};
const KeySet kReplicationIntKeys = {
    "replication.shipped", "replication.send_failures",
    "replication.reconnects", "replication.dropped",
    "replication.queue_depth"};

// The integer fields of a primary's `stats`: the router sums exactly
// these into its "totals" object.
const KeySet kShardStatsIntKeys = Union({
    {"jobs_submitted", "jobs_completed", "jobs_failed", "jobs_cancelled",
     "jobs_superseded", "jobs_expired", "jobs_shed", "cache_served",
     "sessions_executed", "cache_persist_failures", "cache_persist_skipped",
     "jobs_retained", "jobs_retired", "queue_depth", "active_workers",
     "cache.entries", "cache.bytes", "cache.max_bytes", "cache.hits",
     "cache.misses", "cache.evictions", "cache.superseded",
     "server.open_connections",
     "server.total_connections", "server.shed_connections",
     "server.idle_disconnects", "server.errors"},
    kIngestKeys,
    kReplicationIntKeys,
});
const KeySet kShardStatsKeys = Union({
    kShardStatsIntKeys,
    {"ok", "server.role", "replication.connected"},
});
const KeySet kShardHealthKeys = Union({
    {"ok", "service", "role", "uptime_seconds", "queue_depth",
     "active_workers", "max_workers", "cache_entries", "jobs_submitted",
     "jobs_completed", "jobs_failed", "jobs_retired", "open_connections",
     "replication.connected"},
    kIngestKeys,
    kReplicationIntKeys,
});

class ServiceStatsTest : public testing::Test {
 protected:
  void SetUp() override {
    service::ServerOptions follower_options;
    follower_options.role = service::ServerRole::kFollower;
    follower_ = std::make_unique<service::AnalysisServer>(
        std::move(follower_options));
    ASSERT_TRUE(follower_->Start().ok());

    service::ServerOptions primary_options;
    primary_options.replicate_to_port = follower_->port();
    primary_options.cohort_directory = MakeScratchDir("cohorts");
    primary_options.scheduler.max_workers = 1;
    primary_ = std::make_unique<service::AnalysisServer>(
        std::move(primary_options));
    ASSERT_TRUE(primary_->Start().ok());

    service::RouterOptions router_options;
    router_options.probe_interval_millis = 60000.0;
    router_options.shards.push_back(
        service::ShardEndpoints{primary_->port(), follower_->port()});
    router_ = std::make_unique<service::Router>(std::move(router_options));
    ASSERT_TRUE(router_->Start().ok());
  }

  void TearDown() override {
    if (router_ != nullptr) router_->Stop();
    if (primary_ != nullptr) primary_->Stop();
    if (follower_ != nullptr) follower_->Stop();
  }

  std::unique_ptr<service::AnalysisServer> follower_;
  std::unique_ptr<service::AnalysisServer> primary_;
  std::unique_ptr<service::Router> router_;
};

TEST_F(ServiceStatsTest, ShardAndRouterExportPinnedKeySets) {
  ExpectKeys(FlattenedCall(primary_->port(), "stats"), kShardStatsKeys,
             "shard stats");
  ExpectKeys(FlattenedCall(primary_->port(), "health"), kShardHealthKeys,
             "shard health");

  const KeySet router_stats = FlattenedCall(router_->port(), "stats");
  ExpectKeys(router_stats,
             Union({
                 {"ok", "router.submitted", "router.completed",
                  "router.forwarded", "router.failovers", "router.redriven",
                  "router.dead_shards", "router.routes", "router.retired",
                  "shards.0.shard", "shards.0.port", "shards.0.alive",
                  "shards.0.using_follower"},
                 Prefixed("shards.0.stats.", kShardStatsKeys),
                 Prefixed("totals.", kShardStatsIntKeys),
             }),
             "router stats");
  ExpectKeys(FlattenedCall(router_->port(), "health"),
             {"ok", "service", "role", "uptime_seconds", "shards.0.shard",
              "shards.0.primary_port", "shards.0.follower_port",
              "shards.0.active_port", "shards.0.alive",
              "shards.0.using_follower", "shards.0.generation",
              "shards.0.consecutive_probe_failures", "failovers", "redriven",
              "routes", "retired"},
             "router health");

  // The counters the service benchmark reads through the router.
  for (const char* field :
       {"cache.hits", "cache.misses", "cache.evictions", "jobs_submitted",
        "sessions_executed", "jobs_shed", "jobs_expired", "jobs_superseded",
        "replication.shipped", "replication.dropped", "ingest.warm_starts",
        "ingest.cold_fallbacks"}) {
    EXPECT_EQ(router_stats.count(std::string("shards.0.stats.") + field), 1u)
        << field;
  }
  EXPECT_EQ(router_stats.count("router.forwarded"), 1u);
  EXPECT_EQ(router_stats.count("router.failovers"), 1u);
}

TEST_F(ServiceStatsTest, ServiceEventsStayOutOfThePipelineRegistry) {
  auto client = service::AnalysisClient::Connect(router_->port());
  ASSERT_TRUE(client.ok());
  // One cold job, one cache hit, one malformed line and one ingest: a
  // spread of scheduler, cache, server, router and cohort-store events.
  for (int round = 0; round < 2; ++round) {
    auto submitted = client->Call(SubmitBody(7));
    ASSERT_TRUE(submitted.ok());
    Json::Object wait;
    wait["verb"] = "result";
    wait["job_id"] = submitted->Find("job_id")->AsInt();
    wait["wait_millis"] = 60000.0;
    auto result = client->Call(wait);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->Find("state")->AsString(), "done");
  }
  Json::Object record;
  record["patient"] = static_cast<int64_t>(1);
  record["exam_type"] = "glucose";
  Json::Object ingest;
  ingest["verb"] = "ingest";
  ingest["cohort"] = "registry";
  ingest["records"] = Json(Json::Array{Json(std::move(record))});
  ASSERT_TRUE(client->Call(ingest).ok());
  auto raw = service::AnalysisClient::Connect(primary_->port());
  ASSERT_TRUE(raw.ok());
  EXPECT_FALSE(raw->Call(Json::Object{{"no_verb", Json(true)}}).ok());

  KeySet registry;
  Flatten(common::MetricsRegistry::Default().ToJson(), "", registry);
  for (const std::string& key : registry) {
    // Keys are "<kind>.<instrument name>[.<field>]".
    EXPECT_EQ(key.find(".service/"), std::string::npos) << key;
  }
  // The same events are counted per instance.
  EXPECT_EQ(primary_->scheduler().stats().sessions_executed, 1);
  EXPECT_EQ(primary_->scheduler().stats().cache_served, 1);
}

}  // namespace
}  // namespace adahealth
