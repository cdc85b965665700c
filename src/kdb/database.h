// The K-DB: a named set of collections plus the six-collection
// ADA-HEALTH schema from the paper (§IV-A): "(1) the original dataset,
// (2) the transformed dataset after preprocessing and data
// transformation, (3) statistical descriptors to model the data
// distribution, (4-5) interesting and selected knowledge items
// discovered through different data mining algorithms, and (6) user
// interaction feedbacks."
//
// Persistence: SaveTo writes every collection crash-safely
// (kdb/storage.h) when a session is given a persist directory; LoadFrom
// reads such a directory back. The service's crash-safe state (cohort
// store, result cache) does not go through the K-DB: it lives in the
// append-only store log of service/store_log.h.
#ifndef ADAHEALTH_KDB_DATABASE_H_
#define ADAHEALTH_KDB_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/retry.h"
#include "kdb/collection.h"
#include "kdb/storage.h"

namespace adahealth {
namespace kdb {

/// Canonical names of the six ADA-HEALTH collections.
struct Schema {
  static constexpr const char* kRawDatasets = "raw_datasets";
  static constexpr const char* kTransformedDatasets =
      "transformed_datasets";
  static constexpr const char* kDescriptors = "descriptors";
  static constexpr const char* kKnowledgeItems = "knowledge_items";
  static constexpr const char* kSelectedKnowledge = "selected_knowledge";
  static constexpr const char* kFeedback = "feedback";

  /// All six names in schema order.
  static std::vector<std::string> CollectionNames();
};

/// An in-process database of named collections with directory
/// persistence. Collection pointers remain valid for the lifetime of
/// the Database.
class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Returns the collection, creating it if absent.
  Collection& GetOrCreate(const std::string& name);

  /// Returns the collection or NOT_FOUND.
  [[nodiscard]] common::StatusOr<Collection*> Get(const std::string& name);

  std::vector<std::string> CollectionNames() const;

  /// Creates all six ADA-HEALTH collections (idempotent) and the
  /// default indexes (dataset_id on every derived collection).
  void EnsureAdaHealthSchema();

  /// Knobs for SaveTo/LoadFrom.
  struct PersistOptions {
    /// Per-collection I/O retry (transient UNAVAILABLE/DEADLINE_EXCEEDED
    /// failures are re-attempted with deterministic backoff).
    common::RetryPolicy retry;
  };

  /// Persists every collection to `<directory>/<name>.jsonl`
  /// atomically (see kdb/storage.h). Verifies up front that the
  /// directory exists and is writable, returning UNAVAILABLE naming
  /// the path, so a bad target cannot fail midway through the
  /// collection set.
  [[nodiscard]] common::Status SaveTo(const std::string& directory) const {
    return SaveTo(directory, PersistOptions());
  }
  [[nodiscard]] common::Status SaveTo(const std::string& directory,
                                      const PersistOptions& options) const;

  /// Loads every `names` collection from the directory, replacing any
  /// in-memory collections of the same name. The directory is checked
  /// up front (UNAVAILABLE with the path when missing).
  // ada-lint: allow(unreached-symbol) database_test, integration_test and
  // fault_injection_test read SaveTo's files back through it.
  [[nodiscard]] common::Status LoadFrom(const std::string& directory,
                          const std::vector<std::string>& names) {
    return LoadFrom(directory, names, PersistOptions());
  }
  [[nodiscard]] common::Status LoadFrom(const std::string& directory,
                                        const std::vector<std::string>& names,
                                        const PersistOptions& options);

 private:
  std::map<std::string, std::unique_ptr<Collection>> collections_;
};

}  // namespace kdb
}  // namespace adahealth

#endif  // ADAHEALTH_KDB_DATABASE_H_
