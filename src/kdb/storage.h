// JSON-lines persistence of collections: one document per line,
// append-friendly, reloadable after a crash.
//
// Crash safety. SaveCollection is atomic: the serialized collection is
// written to `<name>.jsonl.tmp`, flushed to disk (fsync), and renamed
// over the final path, so a crash at any point leaves either the old
// or the new file — never a torn mixture. LoadCollection is strict (a
// malformed line is DATA_LOSS). The service's crash-safe state (the
// cohort store and the result cache) lives in its own append-only
// store log (service/store_log.h), which folds through AtomicWriteFile.
//
// Failpoints (common/failpoint.h): "kdb.storage.write",
// "kdb.storage.fsync", "kdb.storage.rename" fire inside AtomicWriteFile
// (so in SaveCollection and in a store log's fold) before the
// corresponding syscall; "kdb.storage.read" fires inside
// LoadCollection before the file is opened.
#ifndef ADAHEALTH_KDB_STORAGE_H_
#define ADAHEALTH_KDB_STORAGE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "kdb/collection.h"

namespace adahealth {
namespace kdb {

/// Writes `contents` to `path` atomically (`<path>.tmp` + fsync +
/// rename + directory fsync). Any failure removes the temporary file
/// and leaves a previous `path` untouched.
[[nodiscard]] common::Status AtomicWriteFile(const std::string& path,
                                             std::string_view contents);

/// Serializes every document of `collection` as one JSON line.
std::string SerializeCollection(const Collection& collection);

/// Rebuilds a collection named `name` from JSON-lines `text`.
/// Fails with DATA_LOSS on malformed lines and INVALID_ARGUMENT /
/// ALREADY_EXISTS on documents without a valid, unique "_id"; messages
/// carry the 1-based line number and a truncated payload preview so a
/// torn write can be triaged from the error alone.
[[nodiscard]] common::StatusOr<Collection> DeserializeCollection(const std::string& name,
                                                   const std::string& text);

/// Atomically writes the collection to `<directory>/<name>.jsonl`
/// (tmp + fsync + rename). On any failure the previous file is left
/// untouched and the temporary file is removed.
[[nodiscard]] common::Status SaveCollection(const Collection& collection,
                              const std::string& directory);

/// Loads `<directory>/<name>.jsonl` (strict).
[[nodiscard]] common::StatusOr<Collection> LoadCollection(const std::string& name,
                                            const std::string& directory);

}  // namespace kdb
}  // namespace adahealth

#endif  // ADAHEALTH_KDB_STORAGE_H_
