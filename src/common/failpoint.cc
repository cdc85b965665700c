#include "common/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <new>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace adahealth {
namespace common {

namespace {

/// The spec grammar's CODE token: any canonical error-code name. OK is
/// rejected — a failpoint that fires must produce a failure.
StatusOr<StatusCode> ParseStatusCodeName(std::string_view name) {
  auto code = StatusCodeFromName(name);
  if (!code.ok()) return code;
  if (code.value() == StatusCode::kOk) {
    return InvalidArgumentError("failpoint error code must not be OK");
  }
  return code;
}

}  // namespace

FailpointConfig OneShotError(StatusCode code, std::string message) {
  FailpointConfig config;
  config.kind = FailpointConfig::Kind::kError;
  config.code = code;
  config.message = std::move(message);
  config.max_activations = 1;
  return config;
}

FailpointRegistry& FailpointRegistry::Default() {
  static FailpointRegistry* registry = [] {
    auto* r = new FailpointRegistry();  // Leaky singleton by design.
    // getenv races concurrent setenv, but this read happens once under
    // the function-local-static guard before any other thread can
    // touch the environment through us.
    if (const char* spec =
            std::getenv("ADA_FAILPOINTS");  // NOLINT(concurrency-mt-unsafe)
        spec != nullptr && spec[0] != '\0') {
      Status configured = r->Configure(spec);
      if (!configured.ok()) {
        ADA_LOG(kError) << "ignoring malformed ADA_FAILPOINTS: "
                        << configured.ToString();
      } else {
        ADA_LOG(kWarning) << "fault injection armed from ADA_FAILPOINTS: "
                          << spec;
      }
    }
    return r;
  }();
  return *registry;
}

StatusOr<FailpointConfig> FailpointRegistry::ParseAction(
    std::string_view action) {
  std::string_view rest = Trim(action);
  FailpointConfig config;

  // Modifiers bind tightest at the end: [*count][@nth].
  if (size_t at = rest.rfind('@'); at != std::string_view::npos &&
                                   at > rest.rfind(')')) {
    auto nth = ParseInt64(Trim(rest.substr(at + 1)));
    if (!nth.ok() || nth.value() < 1) {
      return InvalidArgumentError("bad '@nth' modifier in '" +
                                  std::string(action) + "' (want >= 1)");
    }
    config.first_hit = nth.value();
    rest = Trim(rest.substr(0, at));
  }
  if (size_t star = rest.rfind('*'); star != std::string_view::npos &&
                                     star > rest.rfind(')')) {
    auto count = ParseInt64(Trim(rest.substr(star + 1)));
    if (!count.ok() || count.value() < 1) {
      return InvalidArgumentError("bad '*count' modifier in '" +
                                  std::string(action) + "' (want >= 1)");
    }
    config.max_activations = count.value();
    rest = Trim(rest.substr(0, star));
  }

  if (rest == "off") {
    config.max_activations = 0;
    return config;
  }

  size_t open = rest.find('(');
  if (open == std::string_view::npos || rest.back() != ')') {
    return InvalidArgumentError("expected 'error(...)', 'delay(...)', "
                                "'throw(...)' or 'off', got '" +
                                std::string(action) + "'");
  }
  std::string_view trigger = Trim(rest.substr(0, open));
  std::string_view inner = rest.substr(open + 1, rest.size() - open - 2);

  if (trigger == "error") {
    config.kind = FailpointConfig::Kind::kError;
    std::string_view code_name = inner;
    if (size_t comma = inner.find(','); comma != std::string_view::npos) {
      code_name = inner.substr(0, comma);
      config.message = std::string(Trim(inner.substr(comma + 1)));
    }
    auto code = ParseStatusCodeName(Trim(code_name));
    if (!code.ok()) return code.status();
    config.code = code.value();
    return config;
  }
  if (trigger == "throw") {
    config.kind = FailpointConfig::Kind::kThrow;
    config.message = std::string(Trim(inner));
    return config;
  }
  if (trigger == "delay") {
    config.kind = FailpointConfig::Kind::kDelay;
    auto millis = ParseInt64(Trim(inner));
    if (!millis.ok() || millis.value() < 0) {
      return InvalidArgumentError("bad delay millis in '" +
                                  std::string(action) + "'");
    }
    config.delay_millis = millis.value();
    return config;
  }
  return InvalidArgumentError("unknown trigger '" + std::string(trigger) +
                              "' (want error/delay/throw/off)");
}

Status FailpointRegistry::Configure(std::string_view spec) {
  std::map<std::string, FailpointConfig> parsed;
  for (const std::string& clause : Split(spec, ';')) {
    std::string_view trimmed = Trim(clause);
    if (trimmed.empty()) continue;
    size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return InvalidArgumentError("failpoint clause '" +
                                  std::string(trimmed) +
                                  "' is not of the form point=action");
    }
    auto config = ParseAction(trimmed.substr(eq + 1));
    if (!config.ok()) return config.status();
    parsed[std::string(Trim(trimmed.substr(0, eq)))] =
        std::move(config).value();
  }
  MutexLock lock(&mutex_);
  armed_.clear();
  for (auto& [point, config] : parsed) {
    armed_[point] = ArmedPoint{std::move(config), 0};
  }
  return OkStatus();
}

void FailpointRegistry::Arm(const std::string& point,
                            FailpointConfig config) {
  MutexLock lock(&mutex_);
  armed_[point] = ArmedPoint{std::move(config), 0};
  hit_counts_[point] = 0;
}

void FailpointRegistry::Disarm(const std::string& point) {
  MutexLock lock(&mutex_);
  armed_.erase(point);
}

void FailpointRegistry::Clear() {
  MutexLock lock(&mutex_);
  armed_.clear();
  hit_counts_.clear();
}

Status FailpointRegistry::Evaluate(std::string_view point) {
  int64_t delay_millis = -1;
  std::optional<std::string> thrown;
  Status triggered = OkStatus();
  {
    MutexLock lock(&mutex_);
    int64_t hit = ++hit_counts_[std::string(point)];
    auto it = armed_.find(point);
    if (it == armed_.end()) return OkStatus();
    ArmedPoint& armed = it->second;
    const FailpointConfig& config = armed.config;
    if (hit < config.first_hit) return OkStatus();
    if (config.max_activations >= 0 &&
        armed.activations >= config.max_activations) {
      return OkStatus();
    }
    ++armed.activations;
    if (config.kind == FailpointConfig::Kind::kDelay) {
      delay_millis = config.delay_millis;
    } else if (config.kind == FailpointConfig::Kind::kThrow) {
      thrown = config.message;
    } else {
      std::string message = config.message.empty()
                                ? "injected failure at failpoint '" +
                                      std::string(point) + "'"
                                : config.message;
      triggered = Status(config.code, std::move(message));
    }
  }
  // Sleep and record metrics outside the lock.
  MetricsRegistry::Default().GetCounter("failpoint/triggered").Increment();
  if (delay_millis >= 0) {
    ADA_LOG(kWarning) << "failpoint '" << point << "' delaying "
                      << delay_millis << " ms";
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_millis));
    return OkStatus();
  }
  if (thrown.has_value()) {
    ADA_LOG(kWarning) << "failpoint '" << point << "' throwing: " << *thrown;
    if (*thrown == "bad_alloc") throw std::bad_alloc();
    throw std::runtime_error(*thrown);
  }
  ADA_LOG(kWarning) << "failpoint '" << point
                    << "' firing: " << triggered.ToString();
  return triggered;
}

int64_t FailpointRegistry::hits(const std::string& point) const {
  MutexLock lock(&mutex_);
  auto it = hit_counts_.find(point);
  return it == hit_counts_.end() ? 0 : it->second;
}

std::vector<std::string> FailpointRegistry::ArmedPoints() const {
  MutexLock lock(&mutex_);
  std::vector<std::string> points;
  points.reserve(armed_.size());
  for (const auto& [point, armed] : armed_) points.push_back(point);
  return points;
}

}  // namespace common
}  // namespace adahealth
