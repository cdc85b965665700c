// The crash-safe append-only log behind a shard's persistent state:
// the streaming cohort store's `cohort_store.log` and the result
// cache's `result_cache.log` (service/cohort_store.h,
// service/result_cache.h) are both one StoreLog.
//
// Each commit is one newline-terminated entry:
//
//   <16 hex FNV-1a of the body> <JSON body>\n
//
// An entry is written at the committed end of the log in one pwrite and
// made durable with one fdatasync; the newline commits it. An append
// never renames, truncates or unlinks a file; only a fold does, through
// one kdb::AtomicWriteFile. A crash mid-append leaves a tail without a
// newline, which the next replay ignores and the next append
// overwrites: an entry is fully committed or never happened.
//
// Entries an owner no longer needs (a superseded warm state, an evicted
// cache entry) are dead bytes. The owner counts them and asks FoldDue;
// once they exceed both the live bytes and a 1 MiB floor, the owner
// folds: it rewrites the log from its live state in one Fold.
//
// Not thread-safe: the owner serializes every call.
#ifndef ADAHEALTH_SERVICE_STORE_LOG_H_
#define ADAHEALTH_SERVICE_STORE_LOG_H_

#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "common/json.h"
#include "common/status.h"
#include "service/net_socket.h"

namespace adahealth {
namespace service {

/// One committed log line: checksum, body, newline.
[[nodiscard]] std::string EntryLine(std::string_view body);

class StoreLog {
 public:
  /// The log `<directory>/<file>`; the directory is created if missing.
  /// `torn_failpoint` fires inside every Append, between the entry's
  /// body and its committing newline: the state a crash mid-append
  /// leaves.
  StoreLog(const std::string& directory, const char* file,
           const char* torn_failpoint);

  const std::string& path() const { return path_; }

  /// Reads the committed prefix (every byte up to the last newline; a
  /// tail past it is a torn append) and hands each entry, with its size
  /// in bytes, to `apply` in log order. A missing file is an empty log.
  /// DATA_LOSS naming the entry at the first one that is malformed or
  /// that `apply` refuses; the entries before it stay applied. A log
  /// that cannot be read returns the read error, nothing applied.
  [[nodiscard]] common::Status Replay(
      const std::function<common::Status(const common::Json& entry,
                                         size_t bytes)>& apply);

  /// Writes one entry at the committed end with one pwrite and makes it
  /// durable with one fdatasync. Returns the entry's size in bytes.
  [[nodiscard]] common::StatusOr<size_t> Append(std::string_view body);

  /// The fold rule: true once `dead_bytes` exceed both `live_bytes` and
  /// the 1 MiB floor, so a fold reclaims at least as much as it writes
  /// and small logs are never rewritten at all.
  [[nodiscard]] static bool FoldDue(size_t live_bytes, size_t dead_bytes);

  /// Replaces the whole log with `contents` (EntryLine()s of the live
  /// state) through kdb::AtomicWriteFile. On failure the log is left as
  /// it was.
  [[nodiscard]] common::Status Fold(const std::string& contents);

 private:
  /// Opens the log for writing, creating it on the first commit: an
  /// owner that never commits leaves no file behind.
  [[nodiscard]] common::Status EnsureOpen();
  [[nodiscard]] common::Status WriteAt(const char* data, size_t size);

  const std::string path_;
  const char* const torn_failpoint_;
  FileDescriptor fd_;
  /// Offset just past the last committed entry.
  off_t end_ = 0;
  /// Set once an fdatasync failed: the entry's fate is unknown until a
  /// replay, so no later entry may land behind it.
  common::Status broken_;
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_STORE_LOG_H_
