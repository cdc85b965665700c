#include "kdb/collection.h"

#include <algorithm>

#include "common/check.h"
#include "common/metrics.h"

namespace adahealth {
namespace kdb {

using common::Json;
using common::Status;

namespace {

common::Counter& KdbCounter(const char* name) {
  return common::MetricsRegistry::Default().GetCounter(name);
}

}  // namespace

DocumentId Collection::Insert(Document document) {
  KdbCounter("kdb/inserts").Increment();
  DocumentId id = next_id_++;
  document.set_id(id);
  size_t position = documents_.size();
  documents_.push_back(std::move(document));
  id_to_position_[id] = position;
  IndexDocument(documents_.back(), position);
  return id;
}

Status Collection::Restore(Document document) {
  DocumentId id = document.id();
  if (id <= 0) {
    return common::InvalidArgumentError(
        "restored document must carry a positive _id");
  }
  if (id_to_position_.contains(id)) {
    return common::AlreadyExistsError("duplicate _id " + std::to_string(id));
  }
  size_t position = documents_.size();
  documents_.push_back(std::move(document));
  id_to_position_[id] = position;
  next_id_ = std::max(next_id_, id + 1);
  IndexDocument(documents_.back(), position);
  return common::OkStatus();
}

std::vector<Document> Collection::Find(const Query& query,
                                       size_t limit) const {
  KdbCounter("kdb/queries").Increment();
  std::vector<Document> matches;

  // Try an indexed equality condition first.
  for (const Condition& condition : query.conditions()) {
    if (condition.op != QueryOp::kEq) continue;
    auto index_it = indexes_.find(condition.path);
    if (index_it == indexes_.end()) continue;
    KdbCounter("kdb/index_lookups").Increment();
    auto bucket_it = index_it->second.find(condition.value.Dump());
    if (bucket_it == index_it->second.end()) return matches;
    for (size_t position : bucket_it->second) {
      const Document& document = documents_[position];
      if (query.Matches(document)) {
        matches.push_back(document);
        if (limit != 0 && matches.size() >= limit) return matches;
      }
    }
    return matches;
  }

  for (const Document& document : documents_) {
    if (query.Matches(document)) {
      matches.push_back(document);
      if (limit != 0 && matches.size() >= limit) break;
    }
  }
  return matches;
}

Status Collection::UpdateById(DocumentId id, const Json& fields) {
  KdbCounter("kdb/updates").Increment();
  if (!fields.is_object()) {
    return common::InvalidArgumentError("update fields must be an object");
  }
  auto it = id_to_position_.find(id);
  if (it == id_to_position_.end()) {
    return common::NotFoundError("no document with _id " +
                                 std::to_string(id));
  }
  Document& document = documents_[it->second];
  for (const auto& [key, value] : fields.AsObject()) {
    if (key == "_id") continue;  // Ids are immutable.
    document.Set(key, value);
  }
  ReindexAll();
  return common::OkStatus();
}

void Collection::CreateIndex(const std::string& path) {
  indexes_[path].clear();
  auto& index = indexes_[path];
  for (size_t position = 0; position < documents_.size(); ++position) {
    const Json* field = documents_[position].Get(path);
    if (field != nullptr) index[field->Dump()].push_back(position);
  }
}

void Collection::IndexDocument(const Document& document, size_t position) {
  for (auto& [path, index] : indexes_) {
    const Json* field = document.Get(path);
    if (field != nullptr) index[field->Dump()].push_back(position);
  }
}

void Collection::ReindexAll() {
  for (auto& [path, index] : indexes_) {
    index.clear();
    for (size_t position = 0; position < documents_.size(); ++position) {
      const Json* field = documents_[position].Get(path);
      if (field != nullptr) index[field->Dump()].push_back(position);
    }
  }
}

}  // namespace kdb
}  // namespace adahealth
