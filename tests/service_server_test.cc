// End-to-end coverage of the NDJSON protocol server: the wire grammar
// (ParseRequest/ParseResponse/BuildJobRequest), verb dispatch, and a
// full submit/status/result/cancel/stats conversation over a real
// loopback socket via AnalysisClient, and the client's own contract
// (receive deadline, verbatim Exchange).
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>
#include "common/check.h"
#include "common/json.h"
#include "common/status.h"
#include "service/client.h"
#include "service/fingerprint.h"
#include "service/net_socket.h"
#include "service/protocol.h"
#include "service/server.h"

namespace adahealth {
namespace {

using common::Json;
using common::StatusCode;

// ---------------------------------------------------------------------
// Wire grammar.

TEST(ProtocolTest, ParseRequestExtractsVerb) {
  auto request = service::ParseRequest(R"({"verb":"ping","x":1})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->verb, "ping");
  EXPECT_EQ(request->body.Find("x")->AsInt(), 1);
}

TEST(ProtocolTest, ParseRequestRejectsMalformedInput) {
  EXPECT_EQ(service::ParseRequest("{not json").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service::ParseRequest("[1,2]").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service::ParseRequest(R"({"x":1})").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service::ParseRequest(R"({"verb":""})").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, ResponsesRoundTripThroughParseResponse) {
  Json::Object fields;
  fields["job_id"] = static_cast<int64_t>(7);
  std::string ok_line = service::OkResponse(std::move(fields));
  EXPECT_EQ(ok_line.back(), '\n');
  auto ok = service::ParseResponse(ok_line);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->Find("job_id")->AsInt(), 7);

  std::string error_line = service::ErrorResponse(
      common::ResourceExhaustedError("queue full"));
  auto error = service::ParseResponse(error_line);
  EXPECT_EQ(error.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(error.status().message(), "queue full");
}

TEST(ProtocolTest, BuildJobRequestRequiresExactlyOneDataset) {
  auto neither = service::BuildJobRequest(Json(Json::Object{}));
  EXPECT_EQ(neither.status().code(), StatusCode::kInvalidArgument);

  Json::Object both;
  both["csv"] = "patient_id,exam_type,day\n";
  both["synthetic"] = Json(Json::Object{});
  auto rejected = service::BuildJobRequest(Json(std::move(both)));
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, BuildJobRequestFromCsvAndKnobs) {
  Json::Object body;
  body["csv"] =
      "patient_id,exam_type,day\n0,glucose,1\n0,hba1c,30\n1,glucose,2\n";
  body["dataset_id"] = "csv-cohort";
  body["priority"] = static_cast<int64_t>(3);
  body["deadline_millis"] = 250.0;
  Json::Object options;
  options["cv_folds"] = static_cast<int64_t>(4);
  options["candidate_ks"] = Json(Json::Array{Json(2), Json(3)});
  body["options"] = Json(std::move(options));
  auto request = service::BuildJobRequest(Json(std::move(body)));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->log.num_patients(), 2u);
  EXPECT_EQ(request->log.num_records(), 3u);
  EXPECT_EQ(request->options.dataset_id, "csv-cohort");
  EXPECT_EQ(request->priority, 3);
  EXPECT_DOUBLE_EQ(request->deadline_millis, 250.0);
  EXPECT_EQ(request->options.optimizer.cv_folds, 4);
  EXPECT_EQ(request->options.optimizer.candidate_ks,
            (std::vector<int32_t>{2, 3}));
  EXPECT_FALSE(request->taxonomy.has_value());
}

TEST(ProtocolTest, IngestIdsAndDaysBeyond32BitsAreRejected) {
  // 4294967297 used to wrap to patient 1 and join that patient's
  // history without an error.
  auto ingest = [](int64_t patient, int64_t day) {
    Json::Object record;
    record["patient"] = patient;
    record["exam_type"] = "glucose";
    record["day"] = day;
    Json::Object body;
    body["records"] = Json(Json::Array{Json(std::move(record))});
    return service::ParseIngestRecords(Json(std::move(body)));
  };
  auto patient = ingest(4294967297LL, 1);
  EXPECT_EQ(patient.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(patient.status().message().find("'patient'"), std::string::npos)
      << patient.status().ToString();
  auto day = ingest(1, -4294967296LL);
  EXPECT_EQ(day.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(day.status().message().find("'day'"), std::string::npos)
      << day.status().ToString();
  auto in_range = ingest(2147483647LL, 3);
  ASSERT_TRUE(in_range.ok());
  EXPECT_EQ(in_range->at(0).patient, 2147483647);
}

TEST(ProtocolTest, BuildJobRequestSyntheticCarriesTaxonomy) {
  Json::Object synthetic;
  synthetic["patients"] = static_cast<int64_t>(80);
  synthetic["exam_types"] = static_cast<int64_t>(20);
  synthetic["profiles"] = static_cast<int64_t>(3);
  synthetic["seed"] = static_cast<int64_t>(5);
  Json::Object body;
  body["synthetic"] = Json(std::move(synthetic));
  auto request = service::BuildJobRequest(Json(std::move(body)));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->log.num_patients(), 80u);
  EXPECT_TRUE(request->taxonomy.has_value());
}

// ---------------------------------------------------------------------
// Socket primitives.

TEST(NetSocketTest, ConnectLoopbackEstablishesAndCarriesTraffic) {
  auto listener = service::ServerSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  // The connect completes against the listen backlog, so no accepting
  // thread is needed before it returns.
  auto client = service::ConnectLoopback(listener->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->valid());
  auto accepted = listener->Accept();
  ASSERT_TRUE(accepted.ok());

  // Full duplex: a line each way.
  ASSERT_TRUE(service::SendAll(client.value(), "hello server\n").ok());
  service::LineReader server_reader(accepted.value());
  auto inbound = server_reader.ReadLine();
  ASSERT_TRUE(inbound.ok());
  EXPECT_EQ(inbound.value(), "hello server");
  ASSERT_TRUE(service::SendAll(accepted.value(), "hello client\n").ok());
  service::LineReader client_reader(client.value());
  auto outbound = client_reader.ReadLine();
  ASSERT_TRUE(outbound.ok());
  EXPECT_EQ(outbound.value(), "hello client");

  // An established connection passes FinishConnect's SO_ERROR check —
  // the path an EINTR-interrupted connect() lands on.
  EXPECT_TRUE(service::FinishConnect(client.value(), 1000).ok());
}

TEST(NetSocketTest, ConnectLoopbackReportsUnavailableWhenNothingListens) {
  uint16_t dead_port = 0;
  {
    auto listener = service::ServerSocket::Listen(0);
    ASSERT_TRUE(listener.ok());
    dead_port = listener->port();
  }
  // The listener is gone; the kernel refuses the connect.
  auto client = service::ConnectLoopback(dead_port);
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable);
}

TEST(NetSocketTest, LineReaderCapsNewlinelessInput) {
  auto listener = service::ServerSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto client = service::ConnectLoopback(listener->port());
  ASSERT_TRUE(client.ok());
  auto accepted = listener->Accept();
  ASSERT_TRUE(accepted.ok());

  // 8 KiB without a newline against a 1 KiB budget: the reader must
  // fail instead of buffering forever.
  std::string flood(8192, 'y');
  ASSERT_TRUE(service::SendAll(client.value(), flood).ok());
  service::LineReader reader(accepted.value(), /*max_line_bytes=*/1024);
  EXPECT_EQ(reader.ReadLine().status().code(),
            StatusCode::kResourceExhausted);

  // A line under the budget on a fresh reader still parses.
  ASSERT_TRUE(service::SendAll(accepted.value(), "ok\n").ok());
  service::LineReader small(client.value(), /*max_line_bytes=*/1024);
  auto line = small.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line.value(), "ok");
}

/// Sends `data` in `piece`-byte writes on its own thread (so a full
/// socket buffer cannot stall the reader under test); stops at the
/// first failed write.
std::thread SendInPieces(const service::FileDescriptor& fd, std::string data,
                         size_t piece) {
  return std::thread([&fd, data = std::move(data), piece] {
    for (size_t offset = 0; offset < data.size(); offset += piece) {
      if (!service::SendAll(fd, std::string_view(data).substr(offset, piece))
               .ok()) {
        return;
      }
    }
  });
}

TEST(NetSocketTest, LineReaderReassemblesALongLineFromSmallWrites) {
  auto listener = service::ServerSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto client = service::ConnectLoopback(listener->port());
  ASSERT_TRUE(client.ok());
  auto accepted = listener->Accept();
  ASSERT_TRUE(accepted.ok());

  // A 3 MiB line in 1000-byte writes, with a second line pipelined
  // right behind it in the same stream.
  std::string long_line(3u << 20, ' ');
  for (size_t i = 0; i < long_line.size(); ++i) {
    long_line[i] = static_cast<char>('a' + i % 26);
  }
  std::thread writer =
      SendInPieces(client.value(), long_line + "\nsecond\r\n", 1000);
  service::LineReader reader(accepted.value());
  auto first = reader.ReadLine();
  auto second = reader.ReadLine();
  writer.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->size(), long_line.size());
  EXPECT_TRUE(first.value() == long_line);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value(), "second");

  // The same line against a 1 MiB budget still fails the cap.
  auto capped_client = service::ConnectLoopback(listener->port());
  ASSERT_TRUE(capped_client.ok());
  auto capped_accepted = listener->Accept();
  ASSERT_TRUE(capped_accepted.ok());
  std::thread flood =
      SendInPieces(capped_client.value(), long_line + "\n", 1000);
  service::LineReader capped(capped_accepted.value(),
                             /*max_line_bytes=*/1u << 20);
  EXPECT_EQ(capped.ReadLine().status().code(),
            StatusCode::kResourceExhausted);
  // Closing the reading side fails the writer's next send.
  capped_accepted->Close();
  flood.join();
}

// ---------------------------------------------------------------------
// AnalysisClient against hand-driven listeners.

TEST(AnalysisClientTest, SilentListenerFailsACallWithinTwiceTheDeadline) {
  // The connect completes against the listen backlog; nobody ever
  // accepts, so no answer comes.
  auto listener = service::ServerSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  constexpr double kDeadlineMillis = 250.0;
  auto client = service::AnalysisClient::Connect(listener->port(),
                                                 kDeadlineMillis);
  ASSERT_TRUE(client.ok());
  const auto start = std::chrono::steady_clock::now();
  auto response = client->Call("ping");
  const double elapsed_millis =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable)
      << response.status().ToString();
  EXPECT_LT(elapsed_millis, 2.0 * kDeadlineMillis);
}

TEST(AnalysisClientTest, ExchangeReturnsAnErrorLineVerbatim) {
  // Key order, spacing and the extra field would all be lost by a
  // parse-and-dump round trip.
  const std::string error_line =
      "{\"ok\": false, \"error\": {\"message\": \"queue full\", "
      "\"code\": \"RESOURCE_EXHAUSTED\"}, \"retry_after_millis\": 50}";
  auto listener = service::ServerSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::string received;
  std::thread shard([&listener, &received, &error_line] {
    auto accepted = listener->Accept();
    ADA_CHECK(accepted.ok());
    service::LineReader reader(accepted.value());
    auto line = reader.ReadLine();
    ADA_CHECK(line.ok());
    received = line.value();
    ADA_CHECK(service::SendAll(accepted.value(), error_line + "\n").ok());
  });
  auto client = service::AnalysisClient::Connect(listener->port());
  ASSERT_TRUE(client.ok());
  auto response = client->Exchange("{\"verb\":\"submit\"}");
  shard.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value(), error_line);
  EXPECT_EQ(received, "{\"verb\":\"submit\"}");
}

// ---------------------------------------------------------------------
// Server end-to-end over loopback.

class ServerTest : public testing::Test {
 protected:
  void SetUp() override {
    service::ServerOptions options;
    options.scheduler.max_workers = 2;
    server_ = std::make_unique<service::AnalysisServer>(std::move(options));
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Stop(); }

  /// A small fast synthetic submit body.
  static Json::Object SubmitBody(int64_t seed,
                                 const std::string& dataset_id) {
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

  service::AnalysisClient Client() {
    auto client = service::AnalysisClient::Connect(server_->port());
    ADA_CHECK(client.ok());
    return std::move(client).value();
  }

  std::unique_ptr<service::AnalysisServer> server_;
};

TEST_F(ServerTest, PingAnswers) {
  auto client = Client();
  auto response = client.Call("ping");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Find("service")->AsString(), "ada-health");
}

TEST_F(ServerTest, SubmitResultFlowAndCacheHitOnRepeat) {
  auto client = Client();
  auto submitted = client.Call(SubmitBody(7, "e2e"));
  ASSERT_TRUE(submitted.ok());
  int64_t job_id = submitted->Find("job_id")->AsInt();
  // A worker may pick the job up before the submit snapshot is taken.
  std::string submit_state = submitted->Find("state")->AsString();
  EXPECT_TRUE(submit_state == "queued" || submit_state == "running" ||
              submit_state == "done")
      << submit_state;

  Json::Object result_request;
  result_request["verb"] = "result";
  result_request["job_id"] = job_id;
  result_request["wait_millis"] = 60000.0;
  auto result = client.Call(result_request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Find("state")->AsString(), "done");
  EXPECT_FALSE(result->Find("cache_hit")->AsBool());
  EXPECT_FALSE(result->Find("report")->AsString().empty());

  // The identical submission is answered from the cache.
  auto repeat = client.Call(SubmitBody(7, "e2e"));
  ASSERT_TRUE(repeat.ok());
  result_request["job_id"] = repeat->Find("job_id")->AsInt();
  auto repeat_result = client.Call(result_request);
  ASSERT_TRUE(repeat_result.ok());
  EXPECT_EQ(repeat_result->Find("state")->AsString(), "done");
  EXPECT_TRUE(repeat_result->Find("cache_hit")->AsBool());
  EXPECT_EQ(repeat_result->Find("report")->AsString(),
            result->Find("report")->AsString());

  auto stats = client.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Find("sessions_executed")->AsInt(), 1);
  EXPECT_EQ(stats->Find("cache")->Find("hits")->AsInt(), 1);
}

/// The fingerprint a router forwards for `body` as route_fingerprint.
std::string RouteFingerprint(const Json::Object& body) {
  auto request = service::BuildJobRequest(Json(body));
  ADA_CHECK(request.ok());
  return service::DatasetFingerprint(request->log, request->options);
}

TEST_F(ServerTest, RightRouteFingerprintRunsOneSessionThenHitsAtAdmission) {
  auto client = Client();
  Json::Object body = SubmitBody(9, "hinted");
  body["route_fingerprint"] = RouteFingerprint(body);
  auto submitted = client.Call(body);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  EXPECT_EQ(submitted->Find("fingerprint")->AsString(),
            body["route_fingerprint"].AsString());
  Json::Object result_request;
  result_request["verb"] = "result";
  result_request["job_id"] = submitted->Find("job_id")->AsInt();
  result_request["wait_millis"] = 60000.0;
  auto result = client.Call(result_request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Find("state")->AsString(), "done");
  EXPECT_FALSE(result->Find("cache_hit")->AsBool());

  // The hinted repeat is answered in the submit reply itself.
  auto repeat = client.Call(body);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->Find("state")->AsString(), "done");
  EXPECT_TRUE(repeat->Find("cache_hit")->AsBool());
  EXPECT_EQ(repeat->Find("dataset_id")->AsString(), "hinted");
  result_request["job_id"] = repeat->Find("job_id")->AsInt();
  auto repeat_result = client.Call(result_request);
  ASSERT_TRUE(repeat_result.ok());
  EXPECT_EQ(repeat_result->Find("report")->AsString(),
            result->Find("report")->AsString());

  auto stats = client.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Find("jobs_submitted")->AsInt(), 2);
  EXPECT_EQ(stats->Find("sessions_executed")->AsInt(), 1);
  EXPECT_EQ(stats->Find("cache_served")->AsInt(), 1);
  EXPECT_EQ(stats->Find("cache")->Find("hits")->AsInt(), 1);
  EXPECT_EQ(stats->Find("cache")->Find("misses")->AsInt(), 1);
}

TEST_F(ServerTest, WrongRouteFingerprintOnAMissIsInternalAndAdmitsNothing) {
  auto client = Client();
  Json::Object body = SubmitBody(10, "mis-hinted");
  body["route_fingerprint"] = "0123456789abcdef";
  EXPECT_EQ(client.Call(body).status().code(), StatusCode::kInternal);
  body["route_fingerprint"] = static_cast<int64_t>(7);
  EXPECT_EQ(client.Call(body).status().code(), StatusCode::kInvalidArgument);

  auto stats = client.Call("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Find("jobs_submitted")->AsInt(), 0);
  EXPECT_EQ(stats->Find("sessions_executed")->AsInt(), 0);
  EXPECT_EQ(stats->Find("cache")->Find("hits")->AsInt(), 0);
  EXPECT_EQ(stats->Find("cache")->Find("misses")->AsInt(), 0);
}

TEST_F(ServerTest, StatusOfUnknownJobIsNotFound) {
  auto client = Client();
  Json::Object request;
  request["verb"] = "status";
  request["job_id"] = static_cast<int64_t>(4242);
  auto response = client.Call(request);
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
}

TEST_F(ServerTest, MalformedLineYieldsInvalidArgumentResponse) {
  // Below AnalysisClient: raw socket, garbage line.
  auto connection = service::ConnectLoopback(server_->port());
  ASSERT_TRUE(connection.ok());
  ASSERT_TRUE(service::SendAll(connection.value(), "this is not json\n").ok());
  service::LineReader reader(connection.value());
  auto line = reader.ReadLine();
  ASSERT_TRUE(line.ok());
  auto parsed = service::ParseResponse(line.value());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, UnknownVerbIsRejected) {
  auto client = Client();
  auto response = client.Call("frobnicate");
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, InvalidSubmitSurfacesError) {
  auto client = Client();
  Json::Object body;
  body["verb"] = "submit";  // Neither csv nor synthetic.
  auto response = client.Call(body);
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, CancelQueuedJobOverTheWire) {
  // A dedicated paused server keeps the job queued deterministically
  // while the cancel request races nothing.
  service::ServerOptions options;
  options.scheduler.max_workers = 1;
  options.scheduler.start_paused = true;
  service::AnalysisServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  auto client = service::AnalysisClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  auto submitted = client.value().Call(SubmitBody(9, "cancel-me"));
  ASSERT_TRUE(submitted.ok());
  Json::Object request;
  request["verb"] = "cancel";
  request["job_id"] = submitted->Find("job_id")->AsInt();
  auto cancelled = client.value().Call(request);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->Find("state")->AsString(), "cancelled");
  server.scheduler().Resume();
  server.Stop();
}

TEST_F(ServerTest, HealthVerbReportsLiveness) {
  auto client = Client();
  auto response = client.Call("health");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Find("service")->AsString(), "ada-health");
  EXPECT_EQ(response->Find("role")->AsString(), "primary");
  EXPECT_GE(response->Find("uptime_seconds")->AsDouble(), 0.0);
  EXPECT_EQ(response->Find("queue_depth")->AsInt(), 0);
  EXPECT_EQ(response->Find("max_workers")->AsInt(), 2);
  EXPECT_EQ(response->Find("cache_entries")->AsInt(), 0);
  EXPECT_GE(response->Find("open_connections")->AsInt(), 1);
  // No --replicate-to: the replication block is absent, not empty.
  EXPECT_EQ(response->Find("replication"), nullptr);
}

TEST_F(ServerTest, FollowerRejectsSubmitsUntilPromoted) {
  service::ServerOptions options;
  options.role = service::ServerRole::kFollower;
  options.scheduler.max_workers = 1;
  service::AnalysisServer follower(std::move(options));
  ASSERT_TRUE(follower.Start().ok());
  auto client = service::AnalysisClient::Connect(follower.port());
  ASSERT_TRUE(client.ok());

  // UNAVAILABLE (retryable) so clients racing a failover back off and
  // land on the promoted shard.
  auto rejected = client->Call(SubmitBody(31, "to-follower"));
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  auto promoted = client->Call("promote");
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted->Find("role")->AsString(), "primary");
  EXPECT_TRUE(promoted->Find("was_follower")->AsBool());

  // Promotion is idempotent — the router retries it during failover.
  auto again = client->Call("promote");
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->Find("was_follower")->AsBool());

  auto accepted = client->Call(SubmitBody(31, "to-follower"));
  ASSERT_TRUE(accepted.ok());
  Json::Object request;
  request["verb"] = "result";
  request["job_id"] = accepted->Find("job_id")->AsInt();
  request["wait_millis"] = 60000.0;
  auto result = client->Call(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Find("state")->AsString(), "done");
  follower.Stop();
}

TEST_F(ServerTest, ReplicateVerbInsertsIdempotently) {
  auto client = Client();
  Json::Object entry;
  entry["fingerprint"] = "replicated-fp";
  entry["dataset_id"] = "repl";
  entry["summary"] = "replicated summary";
  entry["report"] = "replicated report";
  entry["knowledge_items"] = static_cast<int64_t>(4);
  Json::Object request;
  request["verb"] = "replicate";
  request["entry"] = Json(std::move(entry));

  auto applied = client.Call(request);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(applied->Find("applied")->AsBool());
  EXPECT_EQ(applied->Find("cache_entries")->AsInt(), 1);

  // At-least-once delivery: a duplicate refreshes, never duplicates.
  auto duplicate = client.Call(request);
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(duplicate->Find("cache_entries")->AsInt(), 1);

  // A replicate without a parseable entry is rejected.
  Json::Object bad;
  bad["verb"] = "replicate";
  EXPECT_EQ(client.Call(bad).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, ShutdownVerbStopsTheServer) {
  auto client = Client();
  auto response = client.Call("shutdown");
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->Find("stopping")->AsBool());
  server_->Wait();
  EXPECT_FALSE(server_->running());
}

}  // namespace
}  // namespace adahealth
