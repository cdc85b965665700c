// Spans recorded by the benchmark around its calls into the program's
// layers. Spans stay in memory and are written out when the run ends;
// a layer's self time is its spans' durations minus what their child
// spans cover.
#ifndef SERVICEBENCH_TRACE_H_
#define SERVICEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace servicebench {

struct Span {
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root.
  std::string name;
  std::string layer;
  int64_t job = 0;  // Request/job the span belongs to (0 = none).
  double start = 0.0;  // Seconds since the tracer was created.
  double end = 0.0;
};

/// Thread-safe span recorder. A disabled tracer records nothing and
/// hands out id 0, so call sites need no branches.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  int64_t Begin(std::string name, std::string layer, int64_t parent,
                int64_t job);
  void End(int64_t id);
  std::vector<Span> Spans() const;

 private:
  double Now() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // Guarded by mutex_; index = id - 1.
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string layer,
             int64_t parent = 0, int64_t job = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_ = 0;
};

/// `span`'s duration minus the union of its children's intervals,
/// clipped to the span (children may overlap each other and may
/// outlive the parent).
double SelfSeconds(const Span& span, const std::vector<Span>& children);

/// Self time summed per layer over every span.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans);

/// One JSON object per line.
std::string SpansToJsonLines(const std::vector<Span>& spans);

}  // namespace servicebench

#endif  // SERVICEBENCH_TRACE_H_
