// Content-addressed analysis-result cache for the service layer.
//
// Keys are dataset fingerprints (service/fingerprint.h); values are the
// rendered artifacts of one completed AnalysisSession::Run. The cache
// is LRU-bounded by a byte budget and serves repeat analyses of
// near-identical cohorts from memory (the admission-time optimization
// motivated by the repetitive hospital workloads of the EHR-mining
// survey).
//
// Persistence (when a directory is given) is the store log the cohort
// store also uses (service/store_log.h): `<directory>/result_cache.log`.
// Opening replays it through the Insert rules (byte budget, cohort
// supersede). Every Insert appends the entry's ToJson() with one pwrite
// and one fdatasync before the entry is cached, so a result is on disk
// before its job reads done. Evicted, superseded and refreshed entries
// are dead bytes; when the fold rule says so, the cache rewrites its
// live entries least-recently-used first, so a replay restores their
// recency. The cache stays an optimization: a failed append still
// caches the entry in memory, and a corrupt committed entry keeps the
// replayed prefix, logs a warning and folds the log at once, so later
// appends are not stranded behind it. No fdatasync runs under the lock
// that Lookup and LookupHit take.
#ifndef ADAHEALTH_SERVICE_RESULT_CACHE_H_
#define ADAHEALTH_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/sync.h"

namespace adahealth {
namespace service {

class StoreLog;

/// File name of the cache's store log inside its directory.
inline constexpr char kCacheLogFile[] = "result_cache.log";

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
/// Failpoints: "service.cache.store" (inside every append, between the
/// entry's body and its committing newline) and "service.cache.load"
/// (the replay at open; a failure starts the cache cold and folds the
/// log to empty).
class ResultCache {
 public:
  /// `max_bytes` bounds the sum of entry ByteSize()s; an entry larger
  /// than the whole budget is rejected silently (never cached). A
  /// non-empty `directory` replays `<directory>/result_cache.log` and
  /// makes every later Insert durable there; an empty one keeps the
  /// cache in memory, with no log and no commit lock.
  explicit ResultCache(size_t max_bytes, const std::string& directory = {});
  ~ResultCache();

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
  /// newer generation is already cached. With a log, the entry is
  /// first appended and made durable; false when that append failed
  /// (the entry is cached in memory all the same).
  bool Insert(CachedAnalysis entry) ADA_EXCLUDES(commit_mutex_, mutex_);

  [[nodiscard]] size_t entries() const ADA_EXCLUDES(mutex_);
  [[nodiscard]] size_t bytes() const ADA_EXCLUDES(mutex_);
  [[nodiscard]] size_t max_bytes() const { return max_bytes_; }
  [[nodiscard]] int64_t hits() const ADA_EXCLUDES(mutex_);
  [[nodiscard]] int64_t misses() const ADA_EXCLUDES(mutex_);
  [[nodiscard]] int64_t evictions() const ADA_EXCLUDES(mutex_);
  /// Cohort generations evicted (or rejected) by a newer generation.
  [[nodiscard]] int64_t superseded() const ADA_EXCLUDES(mutex_);

  /// Copy of every entry, most recently used first. Recency-order
  /// matters to the replication snapshot: a follower with a smaller
  /// byte budget keeps the hottest entries when it replays these in
  /// order. Does not touch LRU order or the hit/miss counters.
  [[nodiscard]] std::vector<CachedAnalysis> Entries() const
      ADA_EXCLUDES(mutex_);

 private:
  struct Slot {
    std::list<CachedAnalysis>::iterator entry;
    /// Size of the log entry it was committed as (0 when not logged).
    size_t log_bytes = 0;
  };
  using Index = std::map<std::string, Slot, std::less<>>;

  std::optional<CachedAnalysis> Find(const std::string& fingerprint,
                                     bool count_miss) ADA_EXCLUDES(mutex_);
  /// The Insert rules, for an entry committed as `log_bytes` of log.
  void InsertLocked(CachedAnalysis entry, size_t log_bytes)
      ADA_REQUIRES(mutex_);
  /// Drops one entry (its log bytes become dead); returns the next
  /// entry in LRU order.
  std::list<CachedAnalysis>::iterator EraseLocked(Index::iterator slot)
      ADA_REQUIRES(mutex_);
  void EvictLocked() ADA_REQUIRES(mutex_);
  /// Rewrites the log from the live entries, least-recently-used first.
  /// False (the log left as it was) when the rewrite failed.
  bool Fold() ADA_REQUIRES(commit_mutex_) ADA_EXCLUDES(mutex_);

  const size_t max_bytes_;
  /// Serializes each append (and fold) with the insert it commits, so
  /// the log holds entries in insert order. Taken before mutex_, and
  /// never by a lookup.
  common::Mutex commit_mutex_;
  /// Null without a directory; set only by the constructor.
  std::unique_ptr<StoreLog> log_ ADA_PT_GUARDED_BY(commit_mutex_);

  mutable common::Mutex mutex_;
  /// Front = most recently used.
  std::list<CachedAnalysis> lru_ ADA_GUARDED_BY(mutex_);
  Index index_ ADA_GUARDED_BY(mutex_);
  size_t bytes_ ADA_GUARDED_BY(mutex_) = 0;
  /// Log bytes of cached entries, and of entries no longer cached.
  size_t log_live_bytes_ ADA_GUARDED_BY(mutex_) = 0;
  size_t log_dead_bytes_ ADA_GUARDED_BY(mutex_) = 0;
  int64_t hits_ ADA_GUARDED_BY(mutex_) = 0;
  int64_t misses_ ADA_GUARDED_BY(mutex_) = 0;
  int64_t evictions_ ADA_GUARDED_BY(mutex_) = 0;
  int64_t superseded_ ADA_GUARDED_BY(mutex_) = 0;
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_RESULT_CACHE_H_
