#include "service/result_cache.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "kdb/database.h"

namespace adahealth {
namespace service {

using common::Json;
using common::Status;
using common::StatusOr;

namespace {
constexpr const char* kCacheCollection = "result_cache";
}  // namespace

size_t CachedAnalysis::ByteSize() const {
  return sizeof(CachedAnalysis) + fingerprint.size() + dataset_id.size() +
         summary.size() + report.size() + cohort.size();
}

Json CachedAnalysis::ToJson() const {
  Json::Object object;
  object["fingerprint"] = Json(fingerprint);
  object["dataset_id"] = Json(dataset_id);
  object["summary"] = Json(summary);
  object["report"] = Json(report);
  object["knowledge_items"] = Json(knowledge_items);
  if (!cohort.empty()) {
    object["cohort"] = Json(cohort);
    object["generation"] = Json(generation);
  }
  return Json(std::move(object));
}

StatusOr<CachedAnalysis> CachedAnalysis::FromJson(const Json& json) {
  if (!json.is_object()) {
    return common::InvalidArgumentError(
        "cached analysis must be a JSON object");
  }
  CachedAnalysis entry;
  const Json* fingerprint = json.Find("fingerprint");
  if (fingerprint == nullptr || !fingerprint->is_string() ||
      fingerprint->AsString().empty()) {
    return common::InvalidArgumentError(
        "cached analysis is missing its fingerprint");
  }
  entry.fingerprint = fingerprint->AsString();
  if (const Json* field = json.Find("dataset_id");
      field != nullptr && field->is_string()) {
    entry.dataset_id = field->AsString();
  }
  if (const Json* field = json.Find("summary");
      field != nullptr && field->is_string()) {
    entry.summary = field->AsString();
  }
  if (const Json* field = json.Find("report");
      field != nullptr && field->is_string()) {
    entry.report = field->AsString();
  }
  if (const Json* field = json.Find("knowledge_items");
      field != nullptr && field->is_int()) {
    entry.knowledge_items = field->AsInt();
  }
  // Tolerant: entries persisted before cohort versioning have neither
  // field and restore as unversioned.
  if (const Json* field = json.Find("cohort");
      field != nullptr && field->is_string()) {
    entry.cohort = field->AsString();
  }
  if (const Json* field = json.Find("generation");
      field != nullptr && field->is_int()) {
    entry.generation = field->AsInt();
  }
  return entry;
}

ResultCache::ResultCache(size_t max_bytes) : max_bytes_(max_bytes) {}

std::optional<CachedAnalysis> ResultCache::Lookup(
    const std::string& fingerprint) {
  return Find(fingerprint, /*count_miss=*/true);
}

std::optional<CachedAnalysis> ResultCache::LookupHit(
    const std::string& fingerprint) {
  return Find(fingerprint, /*count_miss=*/false);
}

std::optional<CachedAnalysis> ResultCache::Find(const std::string& fingerprint,
                                                bool count_miss) {
  common::MutexLock lock(&mutex_);
  auto it = index_.find(fingerprint);
  if (it == index_.end()) {
    if (count_miss) ++misses_;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return *it->second;
}

void ResultCache::Insert(CachedAnalysis entry) {
  if (entry.fingerprint.empty()) return;
  common::MutexLock lock(&mutex_);
  auto it = index_.find(entry.fingerprint);
  if (it != index_.end()) {
    bytes_ -= it->second->ByteSize();
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (!entry.cohort.empty()) {
    // One consistent snapshot per cohort: drop every older cached
    // generation, and drop the entry itself when a newer one already
    // arrived (replication replay may deliver generations out of
    // order). Same-generation re-inserts refresh normally.
    bool stale = false;
    for (auto victim = lru_.begin(); victim != lru_.end();) {
      if (victim->cohort != entry.cohort) {
        ++victim;
        continue;
      }
      if (victim->generation > entry.generation) {
        stale = true;
        ++victim;
        continue;
      }
      if (victim->generation == entry.generation) {
        ++victim;
        continue;
      }
      bytes_ -= victim->ByteSize();
      index_.erase(victim->fingerprint);
      victim = lru_.erase(victim);
      ++superseded_;
    }
    if (stale) {
      ++superseded_;
      return;
    }
  }
  size_t entry_bytes = entry.ByteSize();
  if (entry_bytes > max_bytes_) {
    return;  // Larger than the whole budget: never cacheable.
  }
  lru_.push_front(std::move(entry));
  index_[lru_.front().fingerprint] = lru_.begin();
  bytes_ += entry_bytes;
  ++dirty_;
  EvictLocked();
}

size_t ResultCache::entries() const {
  common::MutexLock lock(&mutex_);
  return lru_.size();
}

size_t ResultCache::bytes() const {
  common::MutexLock lock(&mutex_);
  return bytes_;
}

int64_t ResultCache::hits() const {
  common::MutexLock lock(&mutex_);
  return hits_;
}

int64_t ResultCache::misses() const {
  common::MutexLock lock(&mutex_);
  return misses_;
}

int64_t ResultCache::evictions() const {
  common::MutexLock lock(&mutex_);
  return evictions_;
}

int64_t ResultCache::superseded() const {
  common::MutexLock lock(&mutex_);
  return superseded_;
}

size_t ResultCache::dirty_entries() const {
  common::MutexLock lock(&mutex_);
  return dirty_;
}

std::vector<CachedAnalysis> ResultCache::Entries() const {
  common::MutexLock lock(&mutex_);
  return std::vector<CachedAnalysis>(lru_.begin(), lru_.end());
}

void ResultCache::EvictLocked() {
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    const CachedAnalysis& victim = lru_.back();
    bytes_ -= victim.ByteSize();
    index_.erase(victim.fingerprint);
    lru_.pop_back();
    ++evictions_;
  }
}

Status ResultCache::Persist(const std::string& directory) const {
  ADA_RETURN_IF_ERROR(ADA_FAILPOINT("service.cache.store"));
  kdb::Database db;
  kdb::Collection& collection = db.GetOrCreate(kCacheCollection);
  size_t snapshot_dirty = 0;
  {
    common::MutexLock lock(&mutex_);
    snapshot_dirty = dirty_;
    // Least-recently-used first: Restore() inserts in file order, so
    // the most recent entries end up at the front of the rebuilt LRU
    // and survive any budget trimming.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      kdb::Document document;
      document.Set("entry", it->ToJson());
      collection.Insert(std::move(document));
    }
  }
  ADA_RETURN_IF_ERROR(db.SaveTo(directory));
  // Only the debt captured in the snapshot is paid off; inserts that
  // raced past the copy loop stay dirty for the next persist.
  common::MutexLock lock(&mutex_);
  dirty_ -= std::min(dirty_, snapshot_dirty);
  return common::OkStatus();
}

Status ResultCache::Restore(const std::string& directory) {
  ADA_RETURN_IF_ERROR(ADA_FAILPOINT("service.cache.load"));
  kdb::Database db;
  kdb::Database::PersistOptions options;
  options.salvage = true;  // A torn cache file costs entries, not boot.
  ADA_RETURN_IF_ERROR(db.LoadFrom(directory, {kCacheCollection}, options));
  auto collection = db.Get(kCacheCollection);
  if (!collection.ok()) return collection.status();
  common::MutexLock lock(&mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  for (const kdb::Document& document : collection.value()->documents()) {
    const Json* payload = document.Get("entry");
    if (payload == nullptr) continue;
    auto entry = CachedAnalysis::FromJson(*payload);
    if (!entry.ok()) continue;  // Skip malformed survivors of salvage.
    size_t entry_bytes = entry.value().ByteSize();
    if (entry_bytes > max_bytes_) continue;
    if (index_.contains(entry.value().fingerprint)) continue;
    lru_.push_front(std::move(entry).value());
    index_[lru_.front().fingerprint] = lru_.begin();
    bytes_ += entry_bytes;
    EvictLocked();
  }
  dirty_ = 0;  // The restored contents are exactly what is on disk.
  return common::OkStatus();
}

}  // namespace service
}  // namespace adahealth
