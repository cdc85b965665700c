// Runtime observability for the ADA-HEALTH pipeline: a thread-safe
// registry of named counters, gauges and latency histograms, plus a
// ScopedTimer RAII helper.
//
// The paper's "data analytics optimization" component is built on
// measuring runs (SSE, CV accuracy, partial-mining stop decisions);
// this layer makes the *runtime* side of those runs observable too.
// Every pipeline stage records into the process-wide default registry
// (MetricsRegistry::Default()); benches export the registry as JSON
// through the common/json writer so perf trajectories are
// machine-readable. The service layer (src/service/) does not record
// here: each service component counts its events in its own
// per-instance stats, exported by the `stats`/`health` verbs.
//
// Instrument names use a "subsystem/metric" convention, e.g.
// "kmeans/iterations" or "session/optimize_seconds". Instruments are
// created on first use and live for the lifetime of their registry;
// references returned by the Get* accessors are never invalidated
// (Reset() zeroes values in place instead of destroying instruments).
#ifndef ADAHEALTH_COMMON_METRICS_H_
#define ADAHEALTH_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/json.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/timer.h"

namespace adahealth {
namespace common {

/// Monotonically increasing integer metric. Thread-safe.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins floating-point metric. Thread-safe.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Latency distribution in seconds: count / total / min / max plus
/// decade buckets from 1 microsecond to 100 seconds. Thread-safe.
class LatencyHistogram {
 public:
  /// Number of decade buckets: (-inf, 1us], (1us, 10us], ..., plus an
  /// overflow bucket for samples above 100 s.
  static constexpr size_t kNumBuckets = 10;

  /// Upper bound of bucket `b` in seconds (the last bucket is open).
  static double BucketUpperBound(size_t b);

  void Record(double seconds) ADA_EXCLUDES(mutex_);

  /// Immutable copy of the histogram state.
  struct Snapshot {
    int64_t count = 0;
    double total_seconds = 0.0;
    double min_seconds = 0.0;  // 0 when count == 0.
    double max_seconds = 0.0;
    int64_t buckets[kNumBuckets] = {};

    double mean_seconds() const {
      return count > 0 ? total_seconds / static_cast<double>(count) : 0.0;
    }
  };
  Snapshot snapshot() const ADA_EXCLUDES(mutex_);

  int64_t count() const { return snapshot().count; }
  double total_seconds() const { return snapshot().total_seconds; }

  void Reset() ADA_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  Snapshot state_ ADA_GUARDED_BY(mutex_);
};

/// A named set of instruments. Instruments are created on first access
/// and returned by reference; those references remain valid for the
/// registry's lifetime. All members are thread-safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the pipeline stages record into.
  static MetricsRegistry& Default();

  Counter& GetCounter(std::string_view name) ADA_EXCLUDES(mutex_);
  Gauge& GetGauge(std::string_view name) ADA_EXCLUDES(mutex_);
  LatencyHistogram& GetHistogram(std::string_view name)
      ADA_EXCLUDES(mutex_);

  /// Zeroes every instrument in place (references stay valid).
  void Reset() ADA_EXCLUDES(mutex_);

  /// Exports the registry as
  ///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// with per-histogram count/total/min/max/mean and bucket counts.
  Json ToJson() const ADA_EXCLUDES(mutex_);

  /// Writes ToJson().Pretty() to `path` (for bench reports).
  [[nodiscard]] Status WriteJsonFile(const std::string& path) const;

 private:
  // The maps are guarded; the instruments they point at are internally
  // synchronized (atomics or their own mutex) and handed out as
  // lifetime-stable references, so only map mutation needs mutex_.
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      ADA_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      ADA_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_ ADA_GUARDED_BY(mutex_);
};

/// Records the wall time between construction and destruction (or an
/// early Stop()) into a latency histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram& histogram)
      : histogram_(&histogram) {}
  /// Convenience: times into `registry`'s histogram named `name`.
  ScopedTimer(MetricsRegistry& registry, std::string_view name)
      : histogram_(&registry.GetHistogram(name)) {}
  ~ScopedTimer() { Stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records now and detaches; returns the elapsed seconds. Subsequent
  /// calls (and destruction) are no-ops.
  double Stop() {
    if (histogram_ == nullptr) return 0.0;
    double elapsed = timer_.ElapsedSeconds();
    histogram_->Record(elapsed);
    histogram_ = nullptr;
    return elapsed;
  }

 private:
  LatencyHistogram* histogram_;
  WallTimer timer_;
};

}  // namespace common
}  // namespace adahealth

#endif  // ADAHEALTH_COMMON_METRICS_H_
