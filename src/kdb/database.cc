#include "kdb/database.h"

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/retry.h"

namespace adahealth {
namespace kdb {

using common::Status;
using common::StatusOr;

std::vector<std::string> Schema::CollectionNames() {
  return {kRawDatasets,    kTransformedDatasets, kDescriptors,
          kKnowledgeItems, kSelectedKnowledge,   kFeedback};
}

Collection& Database::GetOrCreate(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    it = collections_.emplace(name, std::make_unique<Collection>(name)).first;
  }
  return *it->second;
}

StatusOr<Collection*> Database::Get(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return common::NotFoundError("no collection named " + name);
  }
  return it->second.get();
}

std::vector<std::string> Database::CollectionNames() const {
  std::vector<std::string> names;
  names.reserve(collections_.size());
  for (const auto& [name, collection] : collections_) names.push_back(name);
  return names;
}

void Database::EnsureAdaHealthSchema() {
  for (const std::string& name : Schema::CollectionNames()) {
    Collection& collection = GetOrCreate(name);
    if (name != Schema::kRawDatasets) {
      collection.CreateIndex("dataset_id");
    }
  }
}

Status Database::SaveTo(const std::string& directory,
                        const PersistOptions& options) const {
  // Fail up front on a bad target rather than per-collection midway.
  ADA_RETURN_IF_ERROR(common::CheckDirectoryWritable(directory));
  for (const auto& [name, collection] : collections_) {
    const Collection* to_save = collection.get();
    Status status = common::RetryWithPolicy(
        options.retry, "kdb.database.save:" + name, [&] {
          ADA_RETURN_IF_ERROR(ADA_FAILPOINT("kdb.database.save"));
          return SaveCollection(*to_save, directory);
        });
    if (!status.ok()) return status;
  }
  return common::OkStatus();
}

Status Database::LoadFrom(const std::string& directory,
                          const std::vector<std::string>& names,
                          const PersistOptions& options) {
  // The readability precheck mirrors SaveTo's writability one: missing
  // directories surface as one UNAVAILABLE naming the path.
  ADA_RETURN_IF_ERROR(common::CheckDirectoryReadable(directory));
  for (const std::string& name : names) {
    common::StatusOr<Collection> loaded =
        common::NotFoundError("not loaded");
    Status status = common::RetryWithPolicy(
        options.retry, "kdb.database.load:" + name, [&] {
          ADA_RETURN_IF_ERROR(ADA_FAILPOINT("kdb.database.load"));
          loaded = LoadCollection(name, directory);
          return loaded.status();
        });
    if (!status.ok()) return status;
    collections_[name] =
        std::make_unique<Collection>(std::move(loaded).value());
  }
  return common::OkStatus();
}

}  // namespace kdb
}  // namespace adahealth
