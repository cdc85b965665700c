// A K-DB collection: an ordered set of documents with auto-assigned
// ids, conjunction-filter queries, field updates and optional
// hash-based secondary indexes.
#ifndef ADAHEALTH_KDB_COLLECTION_H_
#define ADAHEALTH_KDB_COLLECTION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kdb/document.h"
#include "kdb/query.h"

namespace adahealth {
namespace kdb {

/// Not thread-safe; the Database layer serializes access per
/// collection when needed.
class Collection {
 public:
  explicit Collection(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  size_t size() const { return documents_.size(); }
  bool empty() const { return documents_.empty(); }

  /// Inserts a document, assigning a fresh "_id" (any existing "_id"
  /// value is overwritten). Returns the id.
  DocumentId Insert(Document document);

  /// Returns documents matching `query`, in insertion order, up to
  /// `limit` (0 = unlimited). Uses a secondary index when the query has
  /// an equality condition on an indexed path.
  std::vector<Document> Find(const Query& query, size_t limit = 0) const;

  /// Merges `fields` (a JSON object) into the document with the given
  /// id; NOT_FOUND when absent, INVALID_ARGUMENT when not an object.
  [[nodiscard]] common::Status UpdateById(DocumentId id, const common::Json& fields);

  /// Builds (or rebuilds) an equality index on a dotted path. Queries
  /// with an Eq condition on `path` then resolve via the index.
  void CreateIndex(const std::string& path);

  /// All documents in insertion order.
  const std::vector<Document>& documents() const { return documents_; }

  /// Restores a document with a pre-assigned id (used by storage
  /// loading). Fails on duplicate or non-positive ids.
  [[nodiscard]] common::Status Restore(Document document);

 private:
  void IndexDocument(const Document& document, size_t position);
  void ReindexAll();

  std::string name_;
  DocumentId next_id_ = 1;
  std::vector<Document> documents_;
  std::unordered_map<DocumentId, size_t> id_to_position_;
  // path -> (serialized field value -> positions).
  std::unordered_map<std::string,
                     std::unordered_map<std::string, std::vector<size_t>>>
      indexes_;
};

}  // namespace kdb
}  // namespace adahealth

#endif  // ADAHEALTH_KDB_COLLECTION_H_
