#include "trace.h"

#include <algorithm>
#include <utility>

#include "common/json.h"

namespace servicebench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int64_t Tracer::Begin(std::string name, std::string layer, int64_t parent,
                      int64_t job) {
  if (!enabled_) return 0;
  Span span;
  span.parent = parent;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.job = job;
  span.start = Now();
  span.end = span.start;
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  if (!enabled_ || id <= 0) return;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  if (static_cast<size_t>(id) <= spans_.size()) {
    spans_[static_cast<size_t>(id) - 1].end = now;
  }
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::string layer,
                       int64_t parent, int64_t job)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    id_ = tracer_->Begin(std::move(name), std::move(layer), parent, job);
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->End(id_);
}

double SelfSeconds(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> covered;
  for (const Span& child : children) {
    const double begin = std::max(child.start, span.start);
    const double end = std::min(child.end, span.end);
    if (end > begin) covered.emplace_back(begin, end);
  }
  std::sort(covered.begin(), covered.end());
  double union_seconds = 0.0;
  double reach = span.start;
  for (const auto& [begin, end] : covered) {
    const double from = std::max(begin, reach);
    if (end > from) union_seconds += end - from;
    reach = std::max(reach, end);
  }
  return std::max(0.0, (span.end - span.start) - union_seconds);
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  std::map<int64_t, std::vector<Span>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(span);
  }
  std::map<std::string, double> by_layer;
  static const std::vector<Span> kNone;
  for (const Span& span : spans) {
    auto it = children.find(span.id);
    by_layer[span.layer] +=
        SelfSeconds(span, it == children.end() ? kNone : it->second);
  }
  return by_layer;
}

std::string SpansToJsonLines(const std::vector<Span>& spans) {
  std::string out;
  for (const Span& span : spans) {
    adahealth::common::Json::Object object;
    object["id"] = span.id;
    object["parent"] = span.parent;
    object["name"] = span.name;
    object["layer"] = span.layer;
    object["job"] = span.job;
    object["start_s"] = span.start;
    object["end_s"] = span.end;
    out += adahealth::common::Json(std::move(object)).Dump();
    out += '\n';
  }
  return out;
}

}  // namespace servicebench
