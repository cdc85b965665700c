#include "service/result_cache.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "service/store_log.h"

namespace adahealth {
namespace service {

using common::Json;
using common::Status;
using common::StatusOr;

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
  // Every other field is optional: an unversioned entry carries no
  // cohort or generation.
  auto text = [&json](const char* key, std::string& out) {
    const Json* field = json.Find(key);
    if (field != nullptr && field->is_string()) out = field->AsString();
  };
  auto integer = [&json](const char* key, int64_t& out) {
    const Json* field = json.Find(key);
    if (field != nullptr && field->is_int()) out = field->AsInt();
  };
  text("dataset_id", entry.dataset_id);
  text("summary", entry.summary);
  text("report", entry.report);
  integer("knowledge_items", entry.knowledge_items);
  text("cohort", entry.cohort);
  integer("generation", entry.generation);
  return entry;
}

ResultCache::ResultCache(size_t max_bytes, const std::string& directory)
    : max_bytes_(max_bytes) {
  if (directory.empty()) return;
  log_ = std::make_unique<StoreLog>(directory, kCacheLogFile,
                                    "service.cache.store");
  common::MutexLock commit(&commit_mutex_);
  Status loaded = ADA_FAILPOINT("service.cache.load");
  if (loaded.ok()) {
    common::MutexLock lock(&mutex_);
    loaded = log_->Replay(
        [this](const Json& json, size_t bytes) ADA_REQUIRES(mutex_) {
          ADA_ASSIGN_OR_RETURN(CachedAnalysis entry,
                               CachedAnalysis::FromJson(json));
          InsertLocked(std::move(entry), bytes);
          return common::OkStatus();
        });
  }
  if (loaded.ok()) {
    ADA_LOG(kInfo) << "result cache: restored " << entries()
                   << " cached analyses from " << log_->path();
    return;
  }
  // A cache is an optimization: keep what replayed and fold the log
  // down to it, so later appends do not land behind the bad entry.
  ADA_LOG(kWarning) << "result cache: keeping the " << entries()
                    << " entries replayed before a failed load ("
                    << loaded.ToString() << ")";
  if (!Fold()) {
    ADA_LOG(kWarning) << "result cache: caching in memory only";
    log_.reset();
  }
}

ResultCache::~ResultCache() = default;

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
  lru_.splice(lru_.begin(), lru_, it->second.entry);
  ++hits_;
  return *it->second.entry;
}

bool ResultCache::Insert(CachedAnalysis entry) {
  if (entry.fingerprint.empty()) return true;
  if (log_ == nullptr) {
    common::MutexLock lock(&mutex_);
    InsertLocked(std::move(entry), 0);
    return true;
  }
  const std::string body = entry.ToJson().Dump();
  common::MutexLock commit(&commit_mutex_);
  StatusOr<size_t> appended = log_->Append(body);
  if (!appended.ok()) {
    ADA_LOG(kWarning) << "result cache: " << entry.fingerprint
                      << " is cached in memory only; its append failed ("
                      << appended.status().ToString() << ")";
  }
  bool fold_due = false;
  {
    common::MutexLock lock(&mutex_);
    InsertLocked(std::move(entry), appended.ok() ? *appended : 0);
    fold_due = StoreLog::FoldDue(log_live_bytes_, log_dead_bytes_);
  }
  if (fold_due) Fold();  // A failed fold only leaves the log long.
  return appended.ok();
}

void ResultCache::InsertLocked(CachedAnalysis entry, size_t log_bytes) {
  if (auto it = index_.find(entry.fingerprint); it != index_.end()) {
    EraseLocked(it);
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
      victim = EraseLocked(index_.find(victim->fingerprint));
      ++superseded_;
    }
    if (stale) {
      ++superseded_;
      log_dead_bytes_ += log_bytes;
      return;
    }
  }
  size_t entry_bytes = entry.ByteSize();
  if (entry_bytes > max_bytes_) {
    log_dead_bytes_ += log_bytes;
    return;  // Larger than the whole budget: never cacheable.
  }
  lru_.push_front(std::move(entry));
  index_[lru_.front().fingerprint] = Slot{lru_.begin(), log_bytes};
  bytes_ += entry_bytes;
  log_live_bytes_ += log_bytes;
  EvictLocked();
}

std::list<CachedAnalysis>::iterator ResultCache::EraseLocked(
    Index::iterator slot) {
  bytes_ -= slot->second.entry->ByteSize();
  log_live_bytes_ -= slot->second.log_bytes;
  log_dead_bytes_ += slot->second.log_bytes;
  auto next = lru_.erase(slot->second.entry);
  index_.erase(slot);
  return next;
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

std::vector<CachedAnalysis> ResultCache::Entries() const {
  common::MutexLock lock(&mutex_);
  return std::vector<CachedAnalysis>(lru_.begin(), lru_.end());
}

void ResultCache::EvictLocked() {
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    EraseLocked(index_.find(lru_.back().fingerprint));
    ++evictions_;
  }
}

bool ResultCache::Fold() {
  // Least-recently-used first: a replay inserts in log order, so the
  // most recent entries end up at the front of the rebuilt LRU and
  // survive any budget trimming.
  std::vector<CachedAnalysis> live = Entries();
  std::reverse(live.begin(), live.end());
  std::string contents;
  std::vector<size_t> line_bytes;
  for (const CachedAnalysis& entry : live) {
    const std::string line = EntryLine(entry.ToJson().Dump());
    line_bytes.push_back(line.size());
    contents += line;
  }
  if (!log_->Fold(contents).ok()) return false;
  // commit_mutex_ kept every insert out since the copy; lookups only
  // reorder the same entries.
  common::MutexLock lock(&mutex_);
  for (size_t i = 0; i < live.size(); ++i) {
    index_.find(live[i].fingerprint)->second.log_bytes = line_bytes[i];
  }
  log_live_bytes_ = contents.size();
  log_dead_bytes_ = 0;
  return true;
}

}  // namespace service
}  // namespace adahealth
