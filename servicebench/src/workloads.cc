#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "checks.h"
#include "ledger.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "inputs.h"
#include "layers.h"
#include "service/client.h"
#include "service/cohort_store.h"
#include "service/fingerprint.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "stats.h"
#include "topology.h"
#include "trace.h"
#include "transform/simd_kernels.h"

namespace servicebench {

namespace adh = adahealth;
using adh::common::Status;
using adh::common::StatusOr;
using adh::common::StrFormat;
using adh::service::AnalysisClient;
using Clock = std::chrono::steady_clock;

namespace {

// Set-up runs at least kMinSetups times before the window, and more (up
// to kMaxSetups) while their total stays under kSetupBudgetSeconds;
// untraced runs repeat it as often again after the checks. setup_s is
// the median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 9;
constexpr double kSetupBudgetSeconds = 1.0;
// cold_sweep: two analysts, each waiting for its report.
constexpr size_t kColdClients = 2;
constexpr size_t kColdMaxPairs = 512;
// cache_hot: the hot set and its client ceiling (nproc caps it).
constexpr size_t kHotLogs = 8;
constexpr size_t kHotMaxClients = 4;
// stream_ingest: two analysed cohorts plus one write-only connection.
// The streamed part holds ~350 batches, several times what a 20 s
// window consumes, so the analysed loops never run dry.
constexpr int32_t kStreamPatients = 1000;
constexpr double kStreamInitialFraction = 0.3;
constexpr size_t kStreamBatch = 24;
constexpr uint64_t kStreamInitialSeed = 1000;
constexpr int32_t kWriterPatients = 800;
constexpr size_t kWriterBatch = 32;
constexpr int64_t kWriterRotateRecords = 1600;
// peak_rss_mb is read when the window's Nth job completes, so it
// measures the memory of a fixed amount of work, not of however many
// jobs a faster or slower program fits into the window (the scheduler
// keeps every job's request). About half a 20 s window's jobs on a
// 4-vCPU machine.
constexpr int64_t kColdRssJobs = 12;
constexpr int64_t kHotRssJobs = 500;
constexpr int64_t kStreamRssJobs = 100;
// Side probes (request classes a workload does not drive itself).
// Each probe runs twice, before and after the window, so its samples
// span the run instead of one short burst.
constexpr size_t kProbeResubmits = 75;
constexpr size_t kProbeGenerations = 10;
constexpr size_t kProbeWritesPerGeneration = 20;
constexpr int64_t kProbeRotateBatches = 50;
// Traced runs: status/ping rounds and direct-call samples.
constexpr size_t kHopRounds = 100;
constexpr size_t kPingRounds = 200;
constexpr size_t kCheckedJobs = 2;
constexpr size_t kLookupRounds = 400;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Client-side samples of one loop, merged over client threads.
struct Samples {
  std::map<std::string, std::vector<double>> series;
  /// Per-client rates (count / that client's active seconds), summed
  /// into throughputs.
  std::map<std::string, double> rates;
  Ledger ledger;

  void Add(const std::string& name, double value) {
    series[name].push_back(value);
  }
  void Merge(const Samples& other) {
    for (const auto& [name, values] : other.series) {
      auto& into = series[name];
      into.insert(into.end(), values.begin(), values.end());
    }
    for (const auto& [name, rate] : other.rates) rates[name] += rate;
    ledger.Merge(other.ledger);
  }
};

/// One connection plus the bookkeeping around every call on it: verb
/// round-trip time, outcome and (when traced) a span.
class TimedClient {
 public:
  TimedClient(AnalysisClient client, Samples* samples, Tracer* tracer)
      : client_(std::move(client)), samples_(samples), tracer_(tracer) {}

  Samples& samples() { return *samples_; }

  StatusOr<Json> Call(const Json::Object& body, int64_t parent_span,
                      int64_t job) {
    const std::string verb = body.at("verb").AsString();
    const Clock::time_point start = Clock::now();
    const int64_t span =
        tracer_ != nullptr
            ? tracer_->Begin("verb." + verb, "service", parent_span, job)
            : 0;
    StatusOr<Json> reply = client_.Call(body);
    if (tracer_ != nullptr) tracer_->End(span);
    samples_->Add("verb." + verb + "_ms", 1e3 * SecondsSince(start));
    samples_->ledger.Record(Classify(reply));
    return reply;
  }

 private:
  AnalysisClient client_;
  Samples* samples_;
  Tracer* tracer_;
};

/// submit + result as one job; `latency_s` runs from sending the
/// submit to receiving the result.
struct JobOutcome {
  bool ok = false;
  double latency_s = 0.0;
  std::string submit_fingerprint;
  Json result;
};

/// Steal and total CPU time of the whole machine from /proc/stat, in
/// clock ticks. Steal is time the hypervisor gave to other guests; it
/// is recorded with each run to tell a slow host from a slow program.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": the sum over every CPU.
  CpuTicks ticks;
  double value = 0.0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Reads VmHWM once, when the `at`-th job of the timed windows
/// completes.
class RssMark {
 public:
  explicit RssMark(int64_t at) : at_(at) {}
  void JobDone() {
    if (jobs_.fetch_add(1) + 1 == at_) mb_ = PeakRssMb();
  }
  /// The reading, or VmHWM now when fewer than `at` jobs completed.
  double Read() const { return jobs_.load() >= at_ ? mb_.load() : PeakRssMb(); }
  int64_t at() const { return at_; }
  int64_t jobs() const { return jobs_.load(); }

 private:
  const int64_t at_;
  std::atomic<int64_t> jobs_{0};
  std::atomic<double> mb_{0.0};
};

void AddRate(Samples& samples, const std::string& name, int64_t count,
             double active_seconds) {
  if (count > 0 && active_seconds > 0.0) {
    samples.rates[name] += static_cast<double>(count) / active_seconds;
  }
}

const std::string& StringField(const Json& json, const char* key) {
  static const std::string kEmpty;
  const Json* field = json.Find(key);
  return field != nullptr && field->is_string() ? field->AsString() : kEmpty;
}

int64_t IntField(const Json& json, const char* key, int64_t fallback = -1) {
  const Json* field = json.Find(key);
  return field != nullptr && field->is_int() ? field->AsInt() : fallback;
}

double NumberField(const Json& json, const char* key) {
  const Json* field = json.Find(key);
  return field != nullptr && field->is_number() ? field->AsDouble() : 0.0;
}

bool CacheHit(const Json& result) {
  const Json* field = result.Find("cache_hit");
  return field != nullptr && field->is_bool() && field->AsBool();
}

JobOutcome SubmitAndWait(TimedClient& client, const Json::Object& body,
                         int64_t job_tag, Tracer* tracer) {
  JobOutcome outcome;
  const Clock::time_point start = Clock::now();
  ScopedSpan span(tracer, "job", "client", 0, job_tag);
  auto submitted = client.Call(body, span.id(), job_tag);
  if (!submitted.ok() || Classify(submitted) != Outcome::kOk) return outcome;
  outcome.submit_fingerprint = StringField(*submitted, "fingerprint");
  auto result =
      client.Call(ResultBody(IntField(*submitted, "job_id")), span.id(), job_tag);
  outcome.latency_s = SecondsSince(start);
  if (!result.ok() || Classify(result) != Outcome::kOk) return outcome;
  outcome.ok = true;
  outcome.result = std::move(result).value();
  if (!CacheHit(outcome.result)) {
    client.samples().Add("session_run_s", NumberField(outcome.result, "run_seconds"));
  }
  return outcome;
}

void RecordJob(const JobOutcome& job, Samples& samples) {
  samples.Add("job_s", job.latency_s);
  samples.Add("job_wait_s", NumberField(job.result, "wait_seconds"));
}

using ClientLoop =
    std::function<void(size_t client, TimedClient& connection, Samples& local)>;

/// Runs `clients` closed loops, each on its own connection to `port`,
/// and merges their samples into `merged`.
Status RunClients(uint16_t port, size_t clients, Tracer* tracer,
                  Samples& merged, const ClientLoop& loop) {
  std::mutex mutex;
  Status first_error;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Samples local;
      auto connection = AnalysisClient::Connect(port);
      if (!connection.ok()) {
        std::lock_guard<std::mutex> lock(mutex);
        if (first_error.ok()) first_error = connection.status();
        return;
      }
      TimedClient client(std::move(connection).value(), &local, tracer);
      loop(c, client, local);
      std::lock_guard<std::mutex> lock(mutex);
      merged.Merge(local);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return first_error;
}

StatusOr<TimedClient> ConnectTimed(uint16_t port, Samples* samples,
                                   Tracer* tracer) {
  ADA_ASSIGN_OR_RETURN(AnalysisClient client, AnalysisClient::Connect(port));
  return TimedClient(std::move(client), samples, tracer);
}

/// kCheckedJobs distinct indices below `count`, drawn from `seed`.
std::vector<size_t> SeededPicks(size_t count, uint64_t seed) {
  std::vector<size_t> picks(count);
  std::iota(picks.begin(), picks.end(), size_t{0});
  adh::common::Rng rng(seed);
  rng.Shuffle(picks);
  picks.resize(std::min(kCheckedJobs, count));
  return picks;
}

/// A job whose served report is compared with a direct run, and whose
/// stages the traced run breaks down.
struct SampleJob {
  adh::service::JobRequest request;
  std::string served_report;
};

// ---------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  explicit Workload(int64_t rss_jobs) : rss_(rss_jobs) {}
  virtual ~Workload() = default;
  /// Generates the inputs and warms the topology up (timed as set-up).
  virtual Status Setup(Topology& topology) = 0;
  /// One timed window of the workload's closed loops.
  virtual Status RunWindow(Topology& topology, Clock::time_point deadline,
                           Tracer* tracer, Samples& samples) = 0;
  virtual bool drives_resubmits() const { return false; }
  virtual bool drives_ingest() const { return false; }
  /// Workload-specific output checks.
  virtual void CheckOwn(Topology& topology, Tracer* tracer,
                        std::vector<std::string>& failures) = 0;
  virtual StatusOr<std::vector<SampleJob>> SampleJobs() = 0;
  /// Request bodies of the workload's own traffic (protocol timing).
  virtual std::vector<Json::Object> ProtocolBodies() const = 0;
  /// The stream mirror's store timings, when the workload has one.
  virtual const MirrorRun* mirror() const { return nullptr; }
  /// Counts the timed windows' completed jobs for peak_rss_mb.
  RssMark& rss() { return rss_; }

 private:
  RssMark rss_;
};

static_assert(kColdClients == 2, "MakeColdSpecs pairs one job per client");

/// True when the router places `body`'s dataset on `shard`.
bool RoutesTo(Topology& topology, const Json::Object& body, size_t shard) {
  auto request = adh::service::BuildJobRequest(Json(body));
  return request.ok() &&
         topology.router().ShardFor(adh::service::DatasetFingerprint(
             request->log, request->options)) == shard;
}

class ColdSweep final : public Workload {
 public:
  explicit ColdSweep(uint64_t seed) : Workload(kColdRssJobs), seed_(seed) {}

  /// Generates the specs and warms each shard with one small analysis
  /// so lazy initialisation is not timed in the window.
  Status Setup(Topology& topology) override {
    specs_ = MakeColdSpecs(seed_, kColdMaxPairs);
    std::vector<HotLog> warm = MakeHotSet(seed_ + 7, "warm-", kShards, 300, 300 + kShards);
    for (size_t shard = 0; shard < kShards; ++shard) {
      ADA_ASSIGN_OR_RETURN(AnalysisClient client,
                           AnalysisClient::Connect(topology.primary_port(shard)));
      ADA_ASSIGN_OR_RETURN(Json submitted, client.Call(warm[shard].body));
      ADA_ASSIGN_OR_RETURN(Json result,
                           client.Call(ResultBody(IntField(submitted, "job_id"))));
      if (Classify(result) != Outcome::kOk) {
        return adh::common::InternalError("cold_sweep warm-up failed");
      }
    }
    return adh::common::OkStatus();
  }

  /// Client c runs specs 2m + c for m = 0, 1, ... (its own sequence,
  /// continued across windows). job_s and jobs_per_s count only the
  /// stratum cycles a client completed within the window, so neither
  /// depends on which strata the deadline cut off (a client with no
  /// whole cycle counts all its jobs); job_all_s keeps every job.
  Status RunWindow(Topology& topology, Clock::time_point deadline,
                   Tracer* tracer, Samples& samples) override {
    struct Cycle {
      std::vector<double> latencies;
      double finished = 0.0;  // Seconds into the window.
    };
    const Clock::time_point start = Clock::now();
    std::map<size_t, Cycle> cycles[kColdClients];  // By cycle number.
    Status status = RunClients(
        topology.router_port(), kColdClients, tracer, samples,
        [&](size_t c, TimedClient& client, Samples& local) {
          while (Clock::now() < deadline) {
            const size_t i = kColdClients * next_[c]++ + c;
            if (i >= specs_.size()) break;
            JobOutcome job = SubmitAndWait(client, ColdSubmitBody(specs_[i]),
                                           static_cast<int64_t>(i) + 1, tracer);
            if (!job.ok) continue;
            rss().JobDone();
            RecordJob(job, local);
            Cycle& cycle = cycles[c][i / (kColdClients * ColdStrata())];
            cycle.latencies.push_back(job.latency_s);
            cycle.finished = SecondsSince(start);
            std::lock_guard<std::mutex> lock(mutex_);
            done_.emplace_back(i, StringField(job.result, "report"));
          }
        });
    std::vector<double>& counted = samples.series["job_s"];
    samples.series["job_all_s"] = counted;
    counted.clear();
    for (size_t c = 0; c < kColdClients; ++c) {
      int64_t whole = 0, all = 0;
      double whole_end = 0.0, all_end = 0.0;
      std::vector<double> whole_latencies, all_latencies;
      for (const auto& [number, cycle] : cycles[c]) {
        all += static_cast<int64_t>(cycle.latencies.size());
        all_end = std::max(all_end, cycle.finished);
        all_latencies.insert(all_latencies.end(), cycle.latencies.begin(),
                             cycle.latencies.end());
        if (cycle.latencies.size() != ColdStrata()) continue;
        whole += static_cast<int64_t>(cycle.latencies.size());
        whole_end = std::max(whole_end, cycle.finished);
        whole_latencies.insert(whole_latencies.end(), cycle.latencies.begin(),
                               cycle.latencies.end());
      }
      const bool use_whole = whole > 0;
      AddRate(samples, "jobs", use_whole ? whole : all, use_whole ? whole_end : all_end);
      const std::vector<double>& kept = use_whole ? whole_latencies : all_latencies;
      counted.insert(counted.end(), kept.begin(), kept.end());
    }
    return status;
  }

  void CheckOwn(Topology&, Tracer*, std::vector<std::string>&) override {}

  StatusOr<std::vector<SampleJob>> SampleJobs() override {
    std::sort(done_.begin(), done_.end());
    std::vector<SampleJob> jobs;
    for (size_t pick : SeededPicks(done_.size(), seed_ + 17)) {
      const auto& [index, report] = done_[pick];
      ADA_ASSIGN_OR_RETURN(
          adh::service::JobRequest request,
          adh::service::BuildJobRequest(Json(ColdSubmitBody(specs_[index]))));
      jobs.push_back(SampleJob{std::move(request), report});
    }
    return jobs;
  }

  std::vector<Json::Object> ProtocolBodies() const override {
    std::vector<Json::Object> bodies;
    for (size_t i = 0; i < 3 && i < specs_.size(); ++i) {
      bodies.push_back(ColdSubmitBody(specs_[i]));
    }
    return bodies;
  }

 private:
  const uint64_t seed_;
  std::vector<ColdSpec> specs_;
  size_t next_[kColdClients] = {};  // Client c's next m; its thread only.
  std::mutex mutex_;
  std::vector<std::pair<size_t, std::string>> done_;  // Guarded by mutex_.
};

class CacheHot final : public Workload {
 public:
  explicit CacheHot(uint64_t seed)
      : Workload(kHotRssJobs),
        seed_(seed),
        clients_(std::clamp<size_t>(std::thread::hardware_concurrency(), 1,
                                    kHotMaxClients)) {}

  Status Setup(Topology& topology) override {
    // Balanced hot set: log i must route to shard i % 2, so every seed
    // loads both shards' event loops alike (the ring would otherwise
    // split 8 keys anywhere from 4/4 to 8/0 depending on the seed).
    hot_ = MakeHotSet(seed_, "hot-", kHotLogs, 400, 2000,
                      [&](size_t i, const HotLog& log) {
                        return RoutesTo(topology, log.body, i % kShards);
                      });
    first_reports_.assign(hot_.size(), std::string());
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    Samples warm_up;
    ADA_RETURN_IF_ERROR(RunClients(
        topology.router_port(), clients_, nullptr, warm_up,
        [&](size_t, TimedClient& client, Samples&) {
          for (size_t i = next++; i < hot_.size(); i = next++) {
            JobOutcome job = SubmitAndWait(client, hot_[i].body,
                                           static_cast<int64_t>(i) + 1, nullptr);
            if (!job.ok) failed = true;
            first_reports_[i] = StringField(job.result, "report");
          }
        }));
    if (failed) return adh::common::InternalError("cache_hot warm-up failed");
    return adh::common::OkStatus();
  }

  Status RunWindow(Topology& topology, Clock::time_point deadline,
                   Tracer* tracer, Samples& samples) override {
    const Clock::time_point start = Clock::now();
    return RunClients(
        topology.router_port(), clients_, tracer, samples,
        [&](size_t c, TimedClient& client, Samples& local) {
          std::vector<ResubmitRecord> records;
          size_t log = (c * hot_.size() / clients_ + seed_) % hot_.size();
          int64_t done = 0;
          double active = 0.0;
          while (Clock::now() < deadline) {
            log = (log + 1) % hot_.size();
            JobOutcome job = SubmitAndWait(client, hot_[log].body,
                                           ++tag_, tracer);
            if (!job.ok) continue;
            rss().JobDone();
            RecordJob(job, local);
            local.Add("resubmit_ms", 1e3 * job.latency_s);
            records.push_back(ResubmitRecord{
                log, CacheHit(job.result),
                Digest(StringField(job.result, "report"))});
            ++done;
            active = SecondsSince(start);
          }
          AddRate(local, "jobs", done, active);
          AddRate(local, "resubmits", done, active);
          std::lock_guard<std::mutex> lock(mutex_);
          records_.insert(records_.end(), records.begin(), records.end());
        });
  }

  bool drives_resubmits() const override { return true; }

  void CheckOwn(Topology& topology, Tracer*,
                std::vector<std::string>& failures) override;

  StatusOr<std::vector<SampleJob>> SampleJobs() override {
    std::vector<SampleJob> jobs;
    for (size_t pick : SeededPicks(hot_.size(), seed_ + 29)) {
      ADA_ASSIGN_OR_RETURN(adh::service::JobRequest request,
                           adh::service::BuildJobRequest(Json(hot_[pick].body)));
      jobs.push_back(SampleJob{std::move(request), first_reports_[pick]});
    }
    return jobs;
  }

  std::vector<Json::Object> ProtocolBodies() const override {
    std::vector<Json::Object> bodies;
    for (const HotLog& log : hot_) bodies.push_back(log.body);
    return bodies;
  }

 private:
  const uint64_t seed_;
  const size_t clients_;
  std::vector<HotLog> hot_;
  std::vector<std::string> first_reports_;
  std::atomic<int64_t> tag_{0};
  std::mutex mutex_;
  std::vector<ResubmitRecord> records_;  // Guarded by mutex_.
};

class StreamIngest final : public Workload {
 public:
  StreamIngest(uint64_t seed, std::string mirror_dir)
      : Workload(kStreamRssJobs), seed_(seed), mirror_dir_(std::move(mirror_dir)) {}

  Status Setup(Topology& topology) override {
    // Analysed cohort k lives on shard k (the router places cohorts by
    // name), so the two delta loops never share a shard's event loop.
    for (size_t k = 0; k < 2; ++k) {
      std::string name;
      for (int suffix = 0;; ++suffix) {
        name = StrFormat("s%llu%c%d", static_cast<unsigned long long>(seed_),
                         static_cast<char>('a' + k), suffix);
        if (topology.router().ShardFor("cohort/" + name) == k % kShards) break;
      }
      loops_[k].stream = MakeCohortStream(name, seed_ * 2 + k, kStreamPatients,
                                          kStreamInitialFraction, kStreamBatch);
      // Generation 1 (analysed cold during set-up) is the same load for
      // every seed, so set-up time does not follow the seed's data; the
      // seeded cohort's later records arrive on top of it.
      loops_[k].stream.initial =
          MakeCohortStream(name, kStreamInitialSeed + k, kStreamPatients,
                           kStreamInitialFraction, kStreamBatch)
              .initial;
    }
    writer_ = MakeCohortStream("w", seed_ * 2 + 7, kWriterPatients, 0.0,
                               kWriterBatch);
    // Generation 1 of both analysed cohorts: the initial load, analysed
    // cold.
    std::atomic<bool> failed{false};
    Samples warm_up;
    ADA_RETURN_IF_ERROR(RunClients(
        topology.router_port(), 2, nullptr, warm_up,
        [&](size_t k, TimedClient& client, Samples& local) {
          if (!Step(loops_[k], loops_[k].stream.initial, client, local,
                    nullptr)) {
            failed = true;
          }
        }));
    if (failed) return adh::common::InternalError("stream_ingest set-up failed");
    return adh::common::OkStatus();
  }

  Status RunWindow(Topology& topology, Clock::time_point deadline,
                   Tracer* tracer, Samples& samples) override {
    const Clock::time_point start = Clock::now();
    return RunClients(
        topology.router_port(), 3, tracer, samples,
        [&](size_t c, TimedClient& client, Samples& local) {
          if (c == 2) {
            WriterLoop(client, local, deadline, start);
            return;
          }
          CohortLoop& loop = loops_[c];
          int64_t records = 0;
          int64_t jobs = 0;
          double active = 0.0;
          while (Clock::now() < deadline &&
                 loop.next_batch < loop.stream.batches.size()) {
            const auto& batch = loop.stream.batches[loop.next_batch++];
            if (!Step(loop, batch, client, local, tracer)) break;
            rss().JobDone();
            records += static_cast<int64_t>(batch.size());
            ++jobs;
            active = SecondsSince(start);
          }
          if (loop.next_batch == loop.stream.batches.size()) {
            std::fprintf(stderr, "service_bench: cohort %s ran out of batches\n",
                         loop.stream.cohort.c_str());
          }
          AddRate(local, "ingest_records", records, active);
          AddRate(local, "jobs", jobs, active);
        });
  }

  bool drives_ingest() const override { return true; }

  void CheckOwn(Topology&, Tracer* tracer,
                std::vector<std::string>& failures) override {
    for (const StreamStep& step : steps_) {
      if (Status status = CheckStreamStep(step); !status.ok()) {
        failures.push_back(status.message());
      }
    }
    const CohortLoop& loop = loops_[seed_ % 2];
    adh::common::Rng rng(seed_ + 41);
    sample_generation_ =
        loop.reports.size() < 2
            ? 1
            : static_cast<size_t>(rng.UniformInt(
                  2, static_cast<int64_t>(loop.reports.size())));
    auto mirror =
        RunMirror(loop.stream, loop.reports.size(),
                  CohortSubmitBody(loop.stream.cohort), sample_generation_,
                  mirror_dir_, tracer);
    if (!mirror.ok()) {
      failures.push_back("mirror: " + mirror.status().ToString());
      return;
    }
    mirror_ = std::move(mirror).value();
    if (Status status = CheckMirror(loop.reports, mirror_.reports);
        !status.ok()) {
      failures.push_back(status.message());
    }
  }

  StatusOr<std::vector<SampleJob>> SampleJobs() override {
    if (mirror_.reports.size() < sample_generation_) return std::vector<SampleJob>{};
    return std::vector<SampleJob>{
        SampleJob{mirror_.sample_job, mirror_.reports[sample_generation_ - 1]}};
  }

  std::vector<Json::Object> ProtocolBodies() const override {
    std::vector<Json::Object> bodies;
    const CohortStream& stream = loops_[0].stream;
    for (size_t i = 0; i < 3 && i < stream.batches.size(); ++i) {
      bodies.push_back(IngestBody(stream.cohort, stream.batches[i],
                                  static_cast<int64_t>(i) + 1));
    }
    return bodies;
  }

  const MirrorRun* mirror() const override { return &mirror_; }

 private:
  struct CohortLoop {
    CohortStream stream;
    size_t next_batch = 0;
    int64_t generation = 0;
    int64_t total = 0;
    std::vector<std::string> reports;  // reports[g - 1] for generation g.
  };

  /// ingest (guarded by the expected generation), then analyse that
  /// generation; false once anything failed.
  bool Step(CohortLoop& loop, const std::vector<RawExamRecord>& batch,
            TimedClient& client, Samples& local, Tracer* tracer) {
    const Clock::time_point sent = Clock::now();
    const int64_t tag = ++tag_;
    StreamStep step;
    step.cohort = loop.stream.cohort;
    step.analysed = true;
    step.expected_generation = loop.generation + 1;
    step.expected_total = loop.total + static_cast<int64_t>(batch.size());
    auto ingested =
        client.Call(IngestBody(loop.stream.cohort, batch, loop.generation), 0, tag);
    bool ok = ingested.ok();
    if (ok) {
      step.generation = IntField(*ingested, "generation");
      step.total_records = IntField(*ingested, "total_records");
      loop.generation = step.expected_generation;
      loop.total = step.expected_total;
      JobOutcome job = SubmitAndWait(
          client, CohortSubmitBody(loop.stream.cohort), tag, tracer);
      step.submit_fingerprint = job.submit_fingerprint;
      step.result_fingerprint = StringField(job.result, "fingerprint");
      ok = job.ok;
      if (ok) {
        local.Add("freshness_s", SecondsSince(sent));
        RecordJob(job, local);
        loop.reports.push_back(StringField(job.result, "report"));
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    steps_.push_back(std::move(step));
    return ok;
  }

  /// Appends batches to write-only cohorts, rotating to a fresh cohort
  /// every kWriterRotateRecords; its position carries across windows.
  void WriterLoop(TimedClient& client, Samples& local,
                  Clock::time_point deadline, Clock::time_point start) {
    int64_t records = 0;
    double active = 0.0;
    while (Clock::now() < deadline) {
      const auto& batch =
          writer_.batches[writer_position_++ % writer_.batches.size()];
      StreamStep step;
      step.cohort = StrFormat("w%llu-%d", static_cast<unsigned long long>(seed_),
                              writer_cohort_);
      step.expected_generation = writer_generation_ + 1;
      step.expected_total = writer_total_ + static_cast<int64_t>(batch.size());
      auto ingested = client.Call(
          IngestBody(step.cohort, batch, writer_generation_), 0, ++tag_);
      if (ingested.ok()) {
        step.generation = IntField(*ingested, "generation");
        step.total_records = IntField(*ingested, "total_records");
        writer_generation_ = step.expected_generation;
        writer_total_ = step.expected_total;
        records += static_cast<int64_t>(batch.size());
        active = SecondsSince(start);
        if (writer_total_ >= kWriterRotateRecords) {
          ++writer_cohort_;
          writer_generation_ = 0;
          writer_total_ = 0;
        }
      }
      std::lock_guard<std::mutex> lock(mutex_);
      steps_.push_back(std::move(step));
      if (!ingested.ok()) break;
    }
    AddRate(local, "ingest_records", records, active);
  }

  const uint64_t seed_;
  const std::string mirror_dir_;
  CohortLoop loops_[2];
  CohortStream writer_;
  // Write-only connection state (its thread only).
  size_t writer_position_ = 0;
  int writer_cohort_ = 0;
  int64_t writer_generation_ = 0;
  int64_t writer_total_ = 0;
  std::atomic<int64_t> tag_{0};
  std::mutex mutex_;
  std::vector<StreamStep> steps_;  // Guarded by mutex_.
  size_t sample_generation_ = 1;
  MirrorRun mirror_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& work_dir) {
  if (name == "cold_sweep") return std::make_unique<ColdSweep>(seed);
  if (name == "cache_hot") return std::make_unique<CacheHot>(seed);
  if (name == "stream_ingest") {
    return std::make_unique<StreamIngest>(seed, work_dir + "/mirror");
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Counters read through the stats and health verbs.

using Counters = std::map<std::string, double>;

void Flatten(const Json& json, const std::string& prefix, Counters& out) {
  if (json.is_object()) {
    for (const auto& [key, value] : json.AsObject()) {
      Flatten(value, prefix.empty() ? key : prefix + "." + key, out);
    }
  } else if (json.is_array()) {
    for (size_t i = 0; i < json.AsArray().size(); ++i) {
      Flatten(json.AsArray()[i], prefix + "." + std::to_string(i), out);
    }
  } else if (json.is_number()) {
    out[prefix] = json.AsDouble();
  } else if (json.is_bool()) {
    out[prefix] = json.AsBool() ? 1.0 : 0.0;
  }
}

/// Router stats (which embed every shard primary's stats) plus the
/// health of the router and of each primary.
StatusOr<Counters> ReadCounters(Topology& topology) {
  Counters counters;
  ADA_ASSIGN_OR_RETURN(AnalysisClient router,
                       AnalysisClient::Connect(topology.router_port()));
  ADA_ASSIGN_OR_RETURN(Json stats, router.Call("stats"));
  Flatten(stats, "router.stats", counters);
  ADA_ASSIGN_OR_RETURN(Json health, router.Call("health"));
  Flatten(health, "router.health", counters);
  for (size_t shard = 0; shard < kShards; ++shard) {
    ADA_ASSIGN_OR_RETURN(AnalysisClient client,
                         AnalysisClient::Connect(topology.primary_port(shard)));
    ADA_ASSIGN_OR_RETURN(Json shard_health, client.Call("health"));
    Flatten(shard_health, "shard" + std::to_string(shard) + ".health",
            counters);
  }
  return counters;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters delta;
  for (const auto& [key, value] : after) {
    auto it = before.find(key);
    delta[key] = value - (it == before.end() ? 0.0 : it->second);
  }
  return delta;
}

/// Sum over shard primaries of one field of their stats.
double ShardSum(const Counters& counters, const std::string& field) {
  double sum = 0.0;
  for (size_t shard = 0; shard < kShards; ++shard) {
    auto it = counters.find("router.stats.shards." + std::to_string(shard) +
                            ".stats." + field);
    if (it != counters.end()) sum += it->second;
  }
  return sum;
}

double CounterOr0(const Counters& counters, const std::string& key) {
  auto it = counters.find(key);
  return it == counters.end() ? 0.0 : it->second;
}

void CacheHot::CheckOwn(Topology& topology, Tracer*,
                        std::vector<std::string>& failures) {
  auto counters = ReadCounters(topology);
  if (!counters.ok()) {
    failures.push_back("stats: " + counters.status().ToString());
    return;
  }
  std::vector<uint64_t> expected;
  for (const std::string& report : first_reports_) expected.push_back(Digest(report));
  if (Status status = CheckResubmits(
          records_, expected,
          static_cast<int64_t>(ShardSum(*counters, "cache.evictions")));
      !status.ok()) {
    failures.push_back(status.message());
  }
}

// ---------------------------------------------------------------------
// Side probes: request classes the workload does not drive, measured
// after the window, alone on the idle topology.

Status ResubmitProbe(Topology& topology, uint64_t seed, Tracer* tracer,
                     Samples& samples, std::vector<std::string>& failures) {
  std::vector<HotLog> logs = MakeHotSet(seed + 1000003, "probe-a", 1, 500, 500);
  logs.push_back(MakeHotSet(seed + 1000033, "probe-b", 1, 700, 700)[0]);
  ADA_ASSIGN_OR_RETURN(TimedClient client,
                       ConnectTimed(topology.router_port(), &samples, tracer));
  std::vector<std::string> first;
  for (size_t i = 0; i < logs.size(); ++i) {
    JobOutcome job = SubmitAndWait(client, logs[i].body, -1, tracer);
    if (!job.ok) return adh::common::InternalError("resubmit probe warm-up failed");
    first.push_back(StringField(job.result, "report"));
  }
  const Clock::time_point start = Clock::now();
  int64_t done = 0;
  for (size_t n = 0; n < kProbeResubmits; ++n) {
    const size_t log = n % logs.size();
    JobOutcome job = SubmitAndWait(client, logs[log].body, -2, tracer);
    if (!job.ok) continue;
    samples.Add("resubmit_ms", 1e3 * job.latency_s);
    ++done;
    if (!CacheHit(job.result) || StringField(job.result, "report") != first[log]) {
      failures.push_back("resubmit probe: reply was not the cached first report");
    }
  }
  samples.Add("resubmits.count", static_cast<double>(done));
  samples.Add("resubmits.seconds", SecondsSince(start));
  return adh::common::OkStatus();
}

/// Delta generations of one analysed cohort, each followed by a run of
/// write-only batches (rotating cohorts), so both kinds of ingest are
/// sampled across the whole probe.
Status IngestProbe(Topology& topology, uint64_t seed, Tracer* tracer,
                   Samples& samples, std::vector<std::string>& failures) {
  const CohortStream stream = MakeCohortStream(
      StrFormat("p%llu", static_cast<unsigned long long>(seed)),
      seed + 2000003, 300, 0.5, 24);
  const CohortStream writes = MakeCohortStream("q", seed + 3000017, 300, 0.0, 32);
  ADA_ASSIGN_OR_RETURN(TimedClient client,
                       ConnectTimed(topology.router_port(), &samples, tracer));
  auto ingest = [&](const std::string& cohort, const std::vector<RawExamRecord>& batch,
                    int64_t generation, int64_t total, bool analysed,
                    StreamStep& step) -> Status {
    step.cohort = cohort;
    step.analysed = analysed;
    step.expected_generation = generation + 1;
    step.expected_total = total + static_cast<int64_t>(batch.size());
    ADA_ASSIGN_OR_RETURN(Json ingested,
                         client.Call(IngestBody(cohort, batch, generation), 0, -3));
    step.generation = IntField(ingested, "generation");
    step.total_records = IntField(ingested, "total_records");
    return adh::common::OkStatus();
  };
  int64_t total = 0;
  int64_t write_batches = 0;
  int64_t write_records = 0;
  int64_t write_total = 0;
  double write_seconds = 0.0;
  for (size_t g = 0; g <= kProbeGenerations && g <= stream.batches.size(); ++g) {
    const auto& batch = g == 0 ? stream.initial : stream.batches[g - 1];
    const Clock::time_point sent = Clock::now();
    StreamStep step;
    ADA_RETURN_IF_ERROR(ingest(stream.cohort, batch, static_cast<int64_t>(g), total,
                               true, step));
    total = step.expected_total;
    JobOutcome job = SubmitAndWait(client, CohortSubmitBody(stream.cohort), -3, tracer);
    if (!job.ok) return adh::common::InternalError("ingest probe analysis failed");
    step.submit_fingerprint = job.submit_fingerprint;
    step.result_fingerprint = StringField(job.result, "fingerprint");
    if (g > 0) samples.Add("freshness_s", SecondsSince(sent));
    if (Status status = CheckStreamStep(step); !status.ok()) {
      failures.push_back("ingest probe: " + status.message());
    }
    for (size_t w = 0; w < kProbeWritesPerGeneration; ++w, ++write_batches) {
      const auto& records = writes.batches[static_cast<size_t>(write_batches) %
                                           writes.batches.size()];
      const int64_t generation = write_batches % kProbeRotateBatches;
      if (generation == 0) write_total = 0;
      const std::string cohort = StrFormat(
          "q%llu-%lld", static_cast<unsigned long long>(seed),
          static_cast<long long>(write_batches / kProbeRotateBatches));
      StreamStep write;
      const Clock::time_point start = Clock::now();
      ADA_RETURN_IF_ERROR(ingest(cohort, records, generation, write_total, false, write));
      write_seconds += SecondsSince(start);
      write_total = write.expected_total;
      write_records += static_cast<int64_t>(records.size());
      if (Status status = CheckStreamStep(write); !status.ok()) {
        failures.push_back("ingest probe: " + status.message());
      }
    }
  }
  samples.Add("ingest_records.count", static_cast<double>(write_records));
  samples.Add("ingest_records.seconds", write_seconds);
  return adh::common::OkStatus();
}

/// router.hop_us: `status` through the router minus `status` sent
/// straight to the shard that holds the job (the router answers `ping`
/// itself, so ping cannot measure the hop); wire.ping_rtt_us: `ping`
/// to a shard primary.
Status HopAndPingProbe(Topology& topology, uint64_t seed, Tracer* tracer,
                       Samples& samples) {
  const std::vector<HotLog> logs = MakeHotSet(seed + 4000037, "hop-", 1, 300, 300);
  ADA_ASSIGN_OR_RETURN(TimedClient routed,
                       ConnectTimed(topology.router_port(), &samples, tracer));
  ADA_ASSIGN_OR_RETURN(Json submitted, routed.Call(logs[0].body, 0, -5));
  const int64_t global_id = IntField(submitted, "job_id");
  ADA_RETURN_IF_ERROR(routed.Call(ResultBody(global_id), 0, -5).status());
  const size_t shard =
      topology.router().ShardFor(StringField(submitted, "fingerprint"));
  ADA_ASSIGN_OR_RETURN(AnalysisClient direct,
                       AnalysisClient::Connect(topology.primary_port(shard)));
  ADA_ASSIGN_OR_RETURN(Json local, direct.Call(logs[0].body));
  const int64_t local_id = IntField(local, "job_id");
  ADA_RETURN_IF_ERROR(direct.Call(ResultBody(local_id)).status());
  for (size_t round = 0; round < kHopRounds; ++round) {
    Clock::time_point start = Clock::now();
    ADA_RETURN_IF_ERROR(routed.Call(StatusBody(global_id), 0, -5).status());
    samples.Add("status_routed_us", 1e6 * SecondsSince(start));
    start = Clock::now();
    ADA_RETURN_IF_ERROR(direct.Call(StatusBody(local_id)).status());
    samples.Add("status_direct_us", 1e6 * SecondsSince(start));
  }
  ADA_ASSIGN_OR_RETURN(AnalysisClient pinger,
                       AnalysisClient::Connect(topology.primary_port(0)));
  for (size_t round = 0; round < kPingRounds; ++round) {
    const Clock::time_point start = Clock::now();
    ADA_RETURN_IF_ERROR(pinger.Call("ping").status());
    samples.Add("ping_us", 1e6 * SecondsSince(start));
  }
  return adh::common::OkStatus();
}

/// Ingest and BuildCohortJob timings from a persisting CohortStore fed
/// a small stream (workloads without a stream mirror of their own).
Status StoreProbe(const std::string& directory, uint64_t seed,
                  std::vector<double>& ingest_ms, std::vector<double>& build_ms) {
  std::filesystem::create_directories(directory);
  adh::service::CohortStore store(adh::service::CohortStoreOptions{directory});
  const CohortStream stream = MakeCohortStream("layer", seed + 5000011, 300, 0.5, 24);
  for (size_t b = 0; b <= 10 && b <= stream.batches.size(); ++b) {
    Clock::time_point start = Clock::now();
    ADA_RETURN_IF_ERROR(
        store.Ingest(stream.cohort, b == 0 ? stream.initial : stream.batches[b - 1],
                     static_cast<int64_t>(b))
            .status());
    ingest_ms.push_back(1e3 * SecondsSince(start));
    start = Clock::now();
    ADA_RETURN_IF_ERROR(store.BuildCohortJob(stream.cohort).status());
    build_ms.push_back(1e3 * SecondsSince(start));
  }
  return adh::common::OkStatus();
}

// ---------------------------------------------------------------------
// Metric assembly.

Json::Object TailJson(const Tail& tail) {
  Json::Object object;
  object["percentile"] = tail.percentile;
  object["value"] = tail.value;
  object["samples"] = static_cast<int64_t>(tail.samples);
  object["beyond"] = static_cast<int64_t>(tail.beyond);
  object["supported"] = tail.supported;
  return object;
}

/// Median and tail of one sample series, with its sample counts.
Json::Object TimingJson(const std::vector<double>& values) {
  Json::Object entry = TailJson(TailOf(values));
  entry["median"] = Median(values);
  return entry;
}

const std::vector<double>& Series(const Samples& samples, const std::string& name) {
  static const std::vector<double> kEmpty;
  auto it = samples.series.find(name);
  return it == samples.series.end() ? kEmpty : it->second;
}

double Rate(const Samples& samples, const std::string& name) {
  auto it = samples.rates.find(name);
  return it == samples.rates.end() ? 0.0 : it->second;
}

/// Count over seconds of work done one piece after another (probes).
double WorkRate(const Samples& samples, const std::string& name) {
  const std::vector<double>& count = Series(samples, name + ".count");
  const std::vector<double>& seconds = Series(samples, name + ".seconds");
  const double total = std::accumulate(seconds.begin(), seconds.end(), 0.0);
  return total > 0.0 ? std::accumulate(count.begin(), count.end(), 0.0) / total
                     : 0.0;
}

class MetricSink {
 public:
  explicit MetricSink(RunReport& report) : report_(report) {}
  void Set(const std::string& name, double value, const std::string& unit) {
    report_.metrics[name] = value;
    report_.units[name] = unit;
  }

 private:
  RunReport& report_;
};

/// Phase progress on stderr (stdout carries only the result line).
void Progress(Clock::time_point origin, const char* phase) {
  std::fprintf(stderr, "service_bench: %7.2f s  %s\n", SecondsSince(origin), phase);
}

void HostFacts(Json::Object& facts) {
  facts["nproc"] = static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  facts["hardware_concurrency"] =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  facts["simd_isa"] = std::string(adh::transform::simd::IsaName(adh::transform::simd::ActiveIsa()));
  facts["build_type"] = std::string(SERVICEBENCH_BUILD_TYPE);
}

}  // namespace

StatusOr<RunReport> RunBenchmark(const RunConfig& config) {
  if (MakeWorkload(config.workload, config.seed, config.work_dir) == nullptr) {
    return adh::common::InvalidArgumentError("unknown workload '" +
                                             config.workload + "'");
  }
  const Clock::time_point origin = Clock::now();
  RunReport report;
  Json::Object& details = report.details;
  HostFacts(details);
  details["workload"] = config.workload;
  details["seed"] = static_cast<int64_t>(config.seed);
  details["seconds"] = config.seconds;
  details["trace"] = config.trace;
  MetricSink sink(report);
  Tracer tracer(config.trace);
  Tracer* traced = config.trace ? &tracer : nullptr;
  const std::filesystem::path work = config.work_dir;

  // Set-up, several times: before the window until kMinSetups and the
  // budget are reached (the last topology is the one measured), and in
  // untraced runs as many times again after the checks, so setup_s,
  // their median, samples the host across the run as the window
  // metrics do.
  std::vector<double> setup_seconds;
  auto set_up = [&](std::unique_ptr<Topology>& topology,
                    std::unique_ptr<Workload>& workload) -> Status {
    workload.reset();
    topology.reset();
    const std::filesystem::path directory =
        work / ("setup" + std::to_string(setup_seconds.size()));
    std::filesystem::remove_all(directory);
    const Clock::time_point start = Clock::now();
    ADA_ASSIGN_OR_RETURN(topology, Topology::Start(directory.string()));
    workload = MakeWorkload(config.workload, config.seed, config.work_dir);
    ADA_RETURN_IF_ERROR(workload->Setup(*topology));
    setup_seconds.push_back(SecondsSince(start));
    return adh::common::OkStatus();
  };
  std::unique_ptr<Topology> topology;
  std::unique_ptr<Workload> workload;
  double setup_total = 0.0;
  while (setup_seconds.size() < kMaxSetups &&
         (setup_seconds.size() < kMinSetups || setup_total < kSetupBudgetSeconds)) {
    ADA_RETURN_IF_ERROR(set_up(topology, workload));
    setup_total += setup_seconds.back();
  }
  Progress(origin, "set-up done");

  // Traced runs only: side probes of the request classes the workload
  // does not drive (so every per-layer metric has samples), half before
  // and half after the window, alone on the idle topology.
  Samples probe;
  auto side_probes = [&](uint64_t phase) -> Status {
    if (!config.trace) return adh::common::OkStatus();
    const uint64_t probe_seed = config.seed * 4 + phase + 1;
    if (!workload->drives_resubmits()) {
      ADA_RETURN_IF_ERROR(ResubmitProbe(*topology, probe_seed, traced, probe,
                                        report.check_failures));
    }
    if (!workload->drives_ingest()) {
      ADA_RETURN_IF_ERROR(IngestProbe(*topology, probe_seed, traced, probe,
                                      report.check_failures));
    }
    return adh::common::OkStatus();
  };
  ADA_RETURN_IF_ERROR(side_probes(0));

  // The timed window(s). A traced run measures four quarters: untraced,
  // traced, traced, untraced. The tracing overhead compares the traced
  // quarters' median job latencies with the untraced ones'; their mean
  // position in the run is the same, so drift over the run (growing
  // cohorts) cancels.
  Samples window;
  Samples traced_window;
  Counters counter_delta;
  double quarter_p50[4] = {};
  const CpuTicks window_start = ReadCpuTicks();
  auto run_for = [&](double seconds, Tracer* tracer, Samples& into) {
    return workload->RunWindow(
        *topology,
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds)),
        tracer, into);
  };
  if (!config.trace) {
    ADA_RETURN_IF_ERROR(run_for(config.seconds, nullptr, window));
  } else {
    Counters before;
    for (int quarter = 0; quarter < 4; ++quarter) {
      const bool is_traced = quarter == 1 || quarter == 2;
      if (quarter == 1) {
        ADA_ASSIGN_OR_RETURN(before, ReadCounters(*topology));
      }
      Samples samples;
      ADA_RETURN_IF_ERROR(
          run_for(config.seconds / 4.0, is_traced ? traced : nullptr, samples));
      if (quarter == 2) {
        ADA_ASSIGN_OR_RETURN(Counters after, ReadCounters(*topology));
        counter_delta = Delta(after, before);
      }
      // Every job of the quarter (cold_sweep's job_s keeps whole cycles).
      const std::vector<double>& all_jobs = Series(samples, "job_all_s");
      quarter_p50[quarter] =
          Median(all_jobs.empty() ? Series(samples, "job_s") : all_jobs);
      (is_traced ? traced_window : window).Merge(samples);
    }
    // Each half merged two equally long quarters, whose rates add up.
    for (Samples* half : {&window, &traced_window}) {
      for (auto& [name, rate] : half->rates) rate /= 2.0;
    }
  }
  const CpuTicks window_end = ReadCpuTicks();
  details["window_steal_share"] =
      window_end.total > window_start.total
          ? (window_end.steal - window_start.steal) /
                (window_end.total - window_start.total)
          : 0.0;
  Progress(origin, "window done");

  const double peak_rss_mb = workload->rss().Read();
  details["peak_rss_at_jobs"] = workload->rss().at();
  details["window_jobs"] = workload->rss().jobs();

  // Side probes (second half).
  ADA_RETURN_IF_ERROR(side_probes(1));
  if (config.trace) {
    ADA_RETURN_IF_ERROR(HopAndPingProbe(*topology, config.seed, traced, probe));
  }
  Progress(origin, "probes done");

  // Output checks (outside every timed window).
  workload->CheckOwn(*topology, traced, report.check_failures);
  ADA_ASSIGN_OR_RETURN(std::vector<SampleJob> samples, workload->SampleJobs());
  std::vector<DirectRun> direct_runs;
  for (size_t i = 0; i < samples.size(); ++i) {
    ADA_ASSIGN_OR_RETURN(DirectRun run,
                         RunDirect(samples[i].request, traced,
                                   1000000 + static_cast<int64_t>(i)));
    if (Status status = CheckReport(samples[i].served_report, run,
                                    samples[i].request.options.dataset_id);
        !status.ok()) {
      report.check_failures.push_back(status.message());
    }
    direct_runs.push_back(std::move(run));
  }
  if (samples.empty()) report.check_failures.push_back("no job to check");
  Progress(origin, "checks done");
  report.correct = report.check_failures.empty();

  if (!config.trace) {
    topology.reset();
    std::unique_ptr<Topology> extra_topology;
    std::unique_ptr<Workload> extra_workload;
    for (size_t i = 0, before = setup_seconds.size(); i < before; ++i) {
      ADA_RETURN_IF_ERROR(set_up(extra_topology, extra_workload));
    }
    Progress(origin, "late set-ups done");
  }
  Json::Array setups;
  for (double seconds : setup_seconds) setups.push_back(Json(seconds));
  details["setup_seconds"] = Json(std::move(setups));

  Samples all = window;
  all.Merge(traced_window);
  all.Merge(probe);
  report.attempted = all.ledger.attempted();
  report.failed = all.ledger.failed();
  details["failed_frac"] = all.ledger.failed_frac();
  Json::Object outcomes;
  for (size_t o = 0; o < kNumOutcomes; ++o) {
    outcomes[OutcomeName(static_cast<Outcome>(o))] =
        all.ledger.count(static_cast<Outcome>(o));
  }
  details["outcomes"] = Json(std::move(outcomes));

  // Request-class metrics: from the window where the workload drives
  // the class itself, else (traced runs) from the side probes.
  // (Traced runs take the workload's own classes from the traced half.)
  const Samples& own = config.trace ? traced_window : window;
  const Samples& resubmits = workload->drives_resubmits() ? own : probe;
  const Samples& ingests = workload->drives_ingest() ? own : probe;
  const double resubmits_per_s = workload->drives_resubmits()
                                     ? Rate(own, "resubmits")
                                     : WorkRate(probe, "resubmits");
  const double ingest_records_per_s = workload->drives_ingest()
                                          ? Rate(own, "ingest_records")
                                          : WorkRate(probe, "ingest_records");

  if (!config.trace) {
    sink.Set("setup_s", Median(setup_seconds), "s");
    sink.Set("jobs_per_s", Rate(window, "jobs"), "jobs/s");
    sink.Set("job_p50_s", Median(Series(window, "job_s")), "s");
    details["job_p50_s"] = Json(TimingJson(Series(window, "job_s")));
    sink.Set("peak_rss_mb", peak_rss_mb, "MB");
    // The workload's own request classes, recorded with the run facts.
    Json::Object classes;
    if (workload->drives_resubmits()) {
      classes["resubmits_per_s"] = resubmits_per_s;
      classes["resubmit_ms"] = Json(TimingJson(Series(window, "resubmit_ms")));
    }
    if (workload->drives_ingest()) {
      classes["ingest_records_per_s"] = ingest_records_per_s;
      classes["ingest_batch_ms"] = Json(TimingJson(Series(window, "verb.ingest_ms")));
      classes["freshness_s"] = Json(TimingJson(Series(window, "freshness_s")));
    }
    details["workload_metrics"] = Json(std::move(classes));
    return report;
  }

  // ---- Traced run: the per-layer breakdown. ----
  sink.Set("resubmit.per_s", resubmits_per_s, "resubmits/s");
  sink.Set("resubmit.p50_ms", Median(Series(resubmits, "resubmit_ms")), "ms");
  sink.Set("ingest.records_per_s", ingest_records_per_s, "records/s");
  sink.Set("ingest.batch_p50_ms", Median(Series(ingests, "verb.ingest_ms")), "ms");
  sink.Set("freshness.p50_s", Median(Series(ingests, "freshness_s")), "s");
  // Direct calls on the first checked job (servers idle); its direct run
  // above gives the coverage and render time.
  if (samples.empty()) return adh::common::InternalError("no job to trace");
  const int64_t tag = 2000000;
  ADA_ASSIGN_OR_RETURN(StageTrace stages, TraceStages(samples[0].request, traced, tag));
  const DirectRun& direct = direct_runs[0];
  double traced_total = 0.0;  // Stage spans, render excluded.
  for (const auto& [stage, seconds] : stages.stage_seconds) traced_total += seconds;
  stages.stage_seconds["render"] = direct.render_seconds;
  double run_stage_total = 0.0;  // SessionResult::stages, K-DB store excluded.
  double kdb_store = 0.0;
  for (const auto& outcome : direct.result.stages) {
    (outcome.stage == "kdb_store" ? kdb_store : run_stage_total) += outcome.seconds;
  }
  const RegistryReading& registry = stages.registry;
  for (const char* stage : kStageNames) {
    sink.Set(StrFormat("stage.%s_s", stage), stages.stage_seconds[stage], "s");
  }
  sink.Set("stage.kdb_store_s", kdb_store, "s");
  sink.Set("trace.coverage", traced_total / direct.run_seconds, "share");
  sink.Set("trace.stage_crosscheck",
           run_stage_total > 0.0 ? traced_total / run_stage_total : 0.0, "share");
  sink.Set("optimizer.cv_busy_s", registry.cv_seconds, "s");
  sink.Set("optimizer.kmeans_s", registry.kmeans_seconds, "s");
  sink.Set("cv.folds", static_cast<double>(registry.cv_folds), "count");
  sink.Set("cv.fold_fit_ms",
           registry.fold_fits > 0
               ? 1e3 * registry.fold_fit_seconds / static_cast<double>(registry.fold_fits)
               : 0.0,
           "ms");
  sink.Set("kmeans.runs", static_cast<double>(registry.kmeans_runs), "count");
  sink.Set("kmeans.iterations", static_cast<double>(registry.kmeans_iterations),
           "count");
  {
    // Skipped distance checks of the session's own optimizer sweep over
    // the checks its assignment passes would make without pruning
    // (rows x k each). The registry counts passes, not passes per K, so
    // k is the mean K of the evaluated candidates.
    const RegistryReading& sweep = stages.optimizer_registry;
    double k_sum = 0.0;
    size_t evaluated = 0;
    for (const auto& candidate : stages.optimizer.candidates) {
      if (candidate.skipped()) continue;
      k_sum += candidate.k;
      ++evaluated;
    }
    const double checks = static_cast<double>(stages.vsm.rows()) *
                          static_cast<double>(sweep.kmeans_assign_passes) *
                          (evaluated > 0 ? k_sum / static_cast<double>(evaluated) : 0.0);
    sink.Set("kmeans.skip_ratio",
             checks > 0.0 ? static_cast<double>(sweep.kmeans_skipped) / checks : 0.0,
             "share");
  }
  const double partial_mining = stages.stage_seconds["partial_mining"];
  sink.Set("partial_mining.step_s",
           registry.partial_steps > 0
               ? partial_mining / static_cast<double>(registry.partial_steps)
               : 0.0,
           "s");
  {
    // ml + cluster busy time (CV and k-means summed over pool threads,
    // plus partial mining, which is k-means runs) over session busy
    // time (the same plus every other stage's wall time).
    const double ml_cluster =
        registry.cv_seconds + registry.kmeans_seconds + partial_mining;
    double other = 0.0;
    for (const auto& [stage, seconds] : stages.stage_seconds) {
      if (stage != "optimizer" && stage != "partial_mining") other += seconds;
    }
    sink.Set("session.ml_cluster_share",
             ml_cluster + other > 0.0 ? ml_cluster / (ml_cluster + other) : 0.0,
             "share");
  }

  // protocol, dataset and fingerprint on the workload's own bodies/logs.
  std::vector<double> parse_ms, build_ms, fingerprint_ms, csv_ms;
  for (const Json::Object& body : workload->ProtocolBodies()) {
    const std::string line = Json(body).Dump();
    Clock::time_point start = Clock::now();
    ADA_ASSIGN_OR_RETURN(adh::service::Request request,
                         adh::service::ParseRequest(line));
    parse_ms.push_back(1e3 * SecondsSince(start));
    start = Clock::now();
    if (request.verb == "ingest") {
      ADA_RETURN_IF_ERROR(adh::service::ParseIngestRecords(request.body).status());
    } else {
      ADA_RETURN_IF_ERROR(adh::service::BuildJobRequest(request.body).status());
    }
    build_ms.push_back(1e3 * SecondsSince(start));
  }
  for (const SampleJob& sample : samples) {
    Clock::time_point start = Clock::now();
    (void)adh::service::DatasetFingerprint(sample.request.log, sample.request.options);
    fingerprint_ms.push_back(1e3 * SecondsSince(start));
    const std::string csv = sample.request.log.ToCsv();
    start = Clock::now();
    ADA_RETURN_IF_ERROR(adh::dataset::ExamLog::FromCsv(csv).status());
    csv_ms.push_back(1e3 * SecondsSince(start));
  }
  sink.Set("protocol.parse_ms", Median(parse_ms), "ms");
  sink.Set("protocol.build_job_ms", Median(build_ms), "ms");
  sink.Set("fingerprint.ms", Median(fingerprint_ms), "ms");
  sink.Set("dataset.csv_parse_ms", Median(csv_ms), "ms");

  // result_cache: lookups of the workload's reports.
  {
    adh::service::ResultCache cache(8 * 1024 * 1024);
    for (size_t i = 0; i < samples.size(); ++i) {
      adh::service::CachedAnalysis entry;
      entry.fingerprint = "sample-" + std::to_string(i);
      entry.report = samples[i].served_report;
      cache.Insert(std::move(entry));
    }
    std::vector<double> lookup_us;
    ScopedSpan span(traced, "result_cache.lookup", "result_cache");
    for (size_t round = 0; round < kLookupRounds && !samples.empty(); ++round) {
      const Clock::time_point start = Clock::now();
      (void)cache.Lookup("sample-" + std::to_string(round % samples.size()));
      lookup_us.push_back(1e6 * SecondsSince(start));
    }
    sink.Set("cache.lookup_us", Median(lookup_us), "us");
  }

  // cohort_store: direct Ingest/BuildCohortJob calls.
  {
    std::vector<double> ingest_ms, build_job_ms;
    if (const MirrorRun* mirror = workload->mirror(); mirror != nullptr) {
      ingest_ms = mirror->ingest_ms;
      build_job_ms = mirror->build_job_ms;
    } else {
      ScopedSpan span(traced, "cohort_store.probe", "cohort_store");
      ADA_RETURN_IF_ERROR(StoreProbe((work / "layer_store").string(), config.seed,
                                     ingest_ms, build_job_ms));
    }
    sink.Set("cohort_store.ingest_ms", Median(ingest_ms), "ms");
    sink.Set("cohort_store.build_job_ms", Median(build_job_ms), "ms");
  }

  // Counter deltas over the traced window.
  const double hits = ShardSum(counter_delta, "cache.hits");
  const double misses = ShardSum(counter_delta, "cache.misses");
  const double submitted = ShardSum(counter_delta, "jobs_submitted");
  sink.Set("cache.hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
           "share");
  sink.Set("cache.evictions", ShardSum(counter_delta, "cache.evictions"), "count");
  sink.Set("scheduler.sessions_per_submit",
           submitted > 0.0 ? ShardSum(counter_delta, "sessions_executed") / submitted
                           : 0.0,
           "share");
  sink.Set("scheduler.shed", ShardSum(counter_delta, "jobs_shed"), "count");
  sink.Set("scheduler.expired", ShardSum(counter_delta, "jobs_expired"), "count");
  sink.Set("scheduler.superseded", ShardSum(counter_delta, "jobs_superseded"), "count");
  sink.Set("replication.shipped", ShardSum(counter_delta, "replication.shipped"),
           "count");
  sink.Set("replication.dropped", ShardSum(counter_delta, "replication.dropped"),
           "count");
  sink.Set("ingest.warm_starts", ShardSum(counter_delta, "ingest.warm_starts"), "count");
  sink.Set("ingest.cold_fallbacks", ShardSum(counter_delta, "ingest.cold_fallbacks"),
           "count");
  sink.Set("router.forwarded", CounterOr0(counter_delta, "router.stats.router.forwarded"),
           "count");
  sink.Set("router.failovers", CounterOr0(counter_delta, "router.stats.router.failovers"),
           "count");
  Json::Object deltas;
  for (const auto& [key, value] : counter_delta) {
    if (value != 0.0) deltas[key] = value;
  }
  details["counter_deltas"] = Json(std::move(deltas));

  // Client-side layer timings (traced window, probes where the window
  // has none).
  auto series_or_probe = [&](const std::string& name) -> const std::vector<double>& {
    const std::vector<double>& own = Series(traced_window, name);
    return own.empty() ? Series(probe, name) : own;
  };
  sink.Set("scheduler.wait_s", Median(Series(traced_window, "job_wait_s")), "s");
  // Sessions actually run (cache hits carry no run time); on cache_hot
  // only the side probes' delta jobs run one.
  sink.Set("session.run_s", Median(series_or_probe("session_run_s")), "s");
  for (const char* verb : {"submit", "result", "ingest"}) {
    sink.Set(StrFormat("verb.%s_rtt_ms", verb),
             Median(series_or_probe(StrFormat("verb.%s_ms", verb))), "ms");
  }
  sink.Set("verb.status_rtt_ms", Median(Series(probe, "verb.status_ms")), "ms");
  sink.Set("router.hop_us",
           Median(Series(probe, "status_routed_us")) -
               Median(Series(probe, "status_direct_us")),
           "us");
  sink.Set("wire.ping_rtt_us", Median(Series(probe, "ping_us")), "us");

  const double untraced_p50 = quarter_p50[0] + quarter_p50[3];
  const double traced_p50 = quarter_p50[1] + quarter_p50[2];
  sink.Set("trace.overhead", untraced_p50 > 0.0 ? traced_p50 / untraced_p50 - 1.0 : 0.0,
           "share");
  sink.Set("failed_frac", all.ledger.failed_frac(), "share");

  Progress(origin, "layer calls done");
  const std::vector<Span> spans = tracer.Spans();
  sink.Set("trace.spans", static_cast<double>(spans.size()), "count");
  Json::Object self_seconds;
  for (const auto& [layer, seconds] : SelfSecondsByLayer(spans)) {
    self_seconds[layer] = seconds;
  }
  details["self_seconds_by_layer"] = Json(std::move(self_seconds));
  Json::Object verbs;
  for (const auto& [name, values] : traced_window.series) {
    if (name.rfind("verb.", 0) == 0) verbs[name + "_p50"] = Median(values);
  }
  details["traced_verb_rtt_p50"] = Json(std::move(verbs));
  report.spans_jsonl = SpansToJsonLines(spans);
  return report;
}

}  // namespace servicebench
