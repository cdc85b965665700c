// Content-addressed analysis-result cache for the service layer.
//
// Keys are dataset fingerprints (service/fingerprint.h); values are the
// rendered artifacts of one completed AnalysisSession::Run. The cache
// is LRU-bounded by a byte budget and serves repeat analyses of
// near-identical cohorts from memory (the admission-time optimization
// motivated by the repetitive hospital workloads of the EHR-mining
// survey). Optionally it persists through the crash-safe K-DB storage
// layer: entries are documents of a "result_cache" collection, written
// atomically (tmp+fsync+rename) and restored with salvage-mode loads.
#ifndef ADAHEALTH_SERVICE_RESULT_CACHE_H_
#define ADAHEALTH_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/sync.h"

namespace adahealth {
namespace service {

/// The cached artifacts of one analysis: everything a repeat submission
/// needs to be answered without re-running the session.
struct CachedAnalysis {
  std::string fingerprint;
  std::string dataset_id;
  /// SessionResult::summary of the original run.
  std::string summary;
  /// core::RenderSessionReport output — byte-identical to what a fresh
  /// run with the same (log, options) would render.
  std::string report;
  int64_t knowledge_items = 0;
  /// Streaming-cohort versioning (service/cohort_store.h): non-empty
  /// `cohort` marks this entry as one generation of a named cohort.
  /// Insert() then supersedes the cohort's older generations (and
  /// drops the entry itself when a newer generation is already cached,
  /// which replication replay can deliver out of order).
  std::string cohort;
  int64_t generation = 0;

  /// Approximate in-memory footprint, used against the byte budget.
  [[nodiscard]] size_t ByteSize() const;

  [[nodiscard]] common::Json ToJson() const;
  [[nodiscard]] static common::StatusOr<CachedAnalysis> FromJson(
      const common::Json& json);
};

/// Thread-safe LRU cache of CachedAnalysis keyed by fingerprint.
///
/// Failpoints: "service.cache.store" (Persist) and "service.cache.load"
/// (Restore).
class ResultCache {
 public:
  /// `max_bytes` bounds the sum of entry ByteSize()s; an entry larger
  /// than the whole budget is rejected silently (never cached).
  explicit ResultCache(size_t max_bytes);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the entry and marks it most-recently-used; counts a hit
  /// or miss.
  [[nodiscard]] std::optional<CachedAnalysis> Lookup(
      const std::string& fingerprint) ADA_EXCLUDES(mutex_);

  /// Lookup that counts a hit but not a miss: the scheduler's
  /// admission probe, whose misses are counted once, by the job's
  /// run-time Lookup.
  [[nodiscard]] std::optional<CachedAnalysis> LookupHit(
      const std::string& fingerprint) ADA_EXCLUDES(mutex_);

  /// Inserts (or refreshes) an entry, then evicts least-recently-used
  /// entries until the byte budget holds. A cohort-versioned entry
  /// additionally evicts every cached older generation of its cohort
  /// exactly once (counted by superseded()) — the cache serves only
  /// the latest consistent snapshot — and is itself dropped when a
  /// newer generation is already cached.
  void Insert(CachedAnalysis entry) ADA_EXCLUDES(mutex_);

  [[nodiscard]] size_t entries() const ADA_EXCLUDES(mutex_);
  [[nodiscard]] size_t bytes() const ADA_EXCLUDES(mutex_);
  [[nodiscard]] size_t max_bytes() const { return max_bytes_; }
  [[nodiscard]] int64_t hits() const ADA_EXCLUDES(mutex_);
  [[nodiscard]] int64_t misses() const ADA_EXCLUDES(mutex_);
  [[nodiscard]] int64_t evictions() const ADA_EXCLUDES(mutex_);
  /// Cohort generations evicted (or rejected) by a newer generation.
  [[nodiscard]] int64_t superseded() const ADA_EXCLUDES(mutex_);

  /// Inserts not yet covered by a successful Persist(). Lets callers
  /// batch persistence (full rewrites are O(all entries)) instead of
  /// rewriting the file after every insert.
  [[nodiscard]] size_t dirty_entries() const ADA_EXCLUDES(mutex_);

  /// Copy of every entry, most recently used first. Recency-order
  /// matters to the replication snapshot: a follower with a smaller
  /// byte budget keeps the hottest entries when it replays these in
  /// order. Does not touch LRU order or the hit/miss counters.
  [[nodiscard]] std::vector<CachedAnalysis> Entries() const
      ADA_EXCLUDES(mutex_);

  /// Persists every entry to `<directory>/result_cache.jsonl` through
  /// the crash-safe K-DB storage layer (atomic write, no residue on
  /// failure). The lock is NOT held across the disk write: entries are
  /// copied out under one lock scope and the dirty debt settled under a
  /// second, so inserts may race the write (they stay dirty).
  [[nodiscard]] common::Status Persist(const std::string& directory) const
      ADA_EXCLUDES(mutex_);

  /// Replaces the cache contents with the persisted entries (salvage
  /// mode: a torn file restores its valid prefix). Entries are loaded
  /// in persisted-recency order, so the byte budget keeps the most
  /// recently used ones.
  [[nodiscard]] common::Status Restore(const std::string& directory)
      ADA_EXCLUDES(mutex_);

 private:
  std::optional<CachedAnalysis> Find(const std::string& fingerprint,
                                     bool count_miss) ADA_EXCLUDES(mutex_);
  void EvictLocked() ADA_REQUIRES(mutex_);

  const size_t max_bytes_;
  mutable common::Mutex mutex_;
  /// Front = most recently used.
  std::list<CachedAnalysis> lru_ ADA_GUARDED_BY(mutex_);
  std::map<std::string, std::list<CachedAnalysis>::iterator, std::less<>>
      index_ ADA_GUARDED_BY(mutex_);
  size_t bytes_ ADA_GUARDED_BY(mutex_) = 0;
  /// Inserts since the last successful Persist (mutable: a successful
  /// const Persist resets the debt it just paid off).
  mutable size_t dirty_ ADA_GUARDED_BY(mutex_) = 0;
  int64_t hits_ ADA_GUARDED_BY(mutex_) = 0;
  int64_t misses_ ADA_GUARDED_BY(mutex_) = 0;
  int64_t evictions_ ADA_GUARDED_BY(mutex_) = 0;
  int64_t superseded_ ADA_GUARDED_BY(mutex_) = 0;
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_RESULT_CACHE_H_
