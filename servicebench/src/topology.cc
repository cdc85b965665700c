#include "topology.h"

#include <filesystem>
#include <utility>

#include "service/client.h"

namespace servicebench {

namespace adh = adahealth;
using adh::service::AnalysisServer;
using adh::service::ServerOptions;

adh::common::StatusOr<std::unique_ptr<Topology>> Topology::Start(
    const std::string& work_dir) {
  std::unique_ptr<Topology> topology(new Topology());
  for (size_t shard = 0; shard < kShards; ++shard) {
    ServerOptions follower;
    follower.role = adh::service::ServerRole::kFollower;
    topology->followers_.push_back(
        std::make_unique<AnalysisServer>(std::move(follower)));
    ADA_RETURN_IF_ERROR(topology->followers_.back()->Start());

    ServerOptions primary;
    primary.replicate_to_port = topology->followers_.back()->port();
    primary.cohort_directory =
        (std::filesystem::path(work_dir) / ("shard" + std::to_string(shard)))
            .string();
    std::filesystem::create_directories(primary.cohort_directory);
    topology->primaries_.push_back(
        std::make_unique<AnalysisServer>(std::move(primary)));
    ADA_RETURN_IF_ERROR(topology->primaries_.back()->Start());
  }
  adh::service::RouterOptions options;
  for (size_t shard = 0; shard < kShards; ++shard) {
    options.shards.push_back(adh::service::ShardEndpoints{
        topology->primaries_[shard]->port(),
        topology->followers_[shard]->port()});
  }
  topology->router_ = std::make_unique<adh::service::Router>(std::move(options));
  ADA_RETURN_IF_ERROR(topology->router_->Start());

  ADA_ASSIGN_OR_RETURN(
      auto client, adh::service::AnalysisClient::Connect(
                       topology->router_port(),
                       adh::service::ConnectOptions{.retries = 20}));
  ADA_RETURN_IF_ERROR(client.Call("ping").status());
  ADA_RETURN_IF_ERROR(client.Call("stats").status());
  return topology;
}

Topology::~Topology() {
  if (router_ != nullptr) router_->Stop();
  for (auto& primary : primaries_) primary->Stop();
  for (auto& follower : followers_) follower->Stop();
}

}  // namespace servicebench
