// The service topology the benchmark drives, in one process: a Router
// in front of two AnalysisServer shard primaries, each replicating to
// an AnalysisServer follower, all on loopback with kernel-assigned
// ports. In-process servers share ThreadPool::Shared() and
// MetricsRegistry::Default(); see README.md.
#ifndef SERVICEBENCH_TOPOLOGY_H_
#define SERVICEBENCH_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/router.h"
#include "service/server.h"

namespace servicebench {

inline constexpr size_t kShards = 2;

class Topology {
 public:
  /// Starts followers, then primaries (replicating to them, persisting
  /// cohorts under `work_dir`/shard<i>), then the router with its
  /// default prober, and waits until a ping and a stats call through
  /// the router succeed.
  [[nodiscard]] static adahealth::common::StatusOr<std::unique_ptr<Topology>>
  Start(const std::string& work_dir);

  /// Stops the router, then the primaries, then the followers.
  ~Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  uint16_t router_port() const { return router_->port(); }
  uint16_t primary_port(size_t shard) const { return primaries_[shard]->port(); }
  adahealth::service::Router& router() { return *router_; }
  adahealth::service::AnalysisServer& primary(size_t shard) {
    return *primaries_[shard];
  }

 private:
  Topology() = default;

  std::vector<std::unique_ptr<adahealth::service::AnalysisServer>> followers_;
  std::vector<std::unique_ptr<adahealth::service::AnalysisServer>> primaries_;
  std::unique_ptr<adahealth::service::Router> router_;
};

}  // namespace servicebench

#endif  // SERVICEBENCH_TOPOLOGY_H_
