// The router's memo of prepared uploads (DESIGN.md §11).
//
// Analysts re-run the same cohort extract, so the router sees the same
// csv/synthetic submit line again and again. Each time it would parse
// the line, build the dataset and fingerprint it, only to derive the
// route it derived before. UploadMemo remembers that derivation per
// exact line. Its key is the line's length plus a 128-bit keyed digest
// of its bytes, keyed once per process; its value is the UploadRoute.
// It keeps no upload bytes, and it holds at most kRetainedJobs entries,
// evicting the oldest first.
#ifndef ADAHEALTH_SERVICE_UPLOAD_MEMO_H_
#define ADAHEALTH_SERVICE_UPLOAD_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/json.h"

namespace adahealth {
namespace service {

struct Digest128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const Digest128&) const = default;
};

/// Keyed 128-bit digest of byte strings. Each 64-bit half is its own
/// chain of four lanes: lane i absorbs the i-th 16 bytes of every
/// 64-byte stripe through one keyed 64×64→128-bit multiply, folded to
/// 64 bits, with its running state as a multiplier operand, so the
/// order of stripes matters. The halves take each pair of words in
/// opposite roles under independent key words. The last stripe is
/// zero-padded and the length is folded in at the end. Thread-safe.
class LineDigester {
 public:
  /// The key words are expanded from `seed`.
  explicit LineDigester(uint64_t seed);

  /// One instance per process, keyed from the OS entropy source, so
  /// lines cannot be crafted ahead of time to collide.
  static const LineDigester& ProcessKeyed();

  [[nodiscard]] Digest128 Digest(std::string_view bytes) const;

 private:
  static constexpr size_t kKeyWordsPerHalf = 10;
  uint64_t key_[2 * kKeyWordsPerHalf] = {};
};

/// What the router derives from a csv/synthetic submit to route it
/// (Router::Fingerprint).
struct UploadRoute {
  /// The dataset fingerprint it routes on (DatasetFingerprint).
  std::string fingerprint;
  /// The body without its dataset, plus "route_fingerprint": offered to
  /// the shard first, and the re-drive line once the job is finished.
  std::string offer_line;
  /// The request body without its dataset.
  common::Json body;
};

/// Prepared uploads by exact line. Not thread-safe: the router's loop
/// thread alone owns one.
class UploadMemo {
 public:
  struct Key {
    size_t length = 0;
    Digest128 digest;

    bool operator==(const Key&) const = default;
  };

  explicit UploadMemo(
      const LineDigester& digester = LineDigester::ProcessKeyed())
      : digester_(digester) {}

  [[nodiscard]] Key KeyOf(std::string_view line) const {
    return Key{line.size(), digester_.Digest(line)};
  }

  /// The route prepared from the line with this key, or nullptr.
  [[nodiscard]] const UploadRoute* Find(const Key& key) const;

  /// Remembers `route` for `key` unless it is already there; past
  /// kRetainedJobs entries the oldest is evicted.
  void Insert(const Key& key, const UploadRoute& route);

  [[nodiscard]] size_t size() const { return entries_.size(); }

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return static_cast<size_t>(key.digest.lo);  // Keyed: already mixed.
    }
  };

  const LineDigester digester_;
  std::unordered_map<Key, UploadRoute, KeyHash> entries_;
  std::deque<Key> order_;  // Insertion order, oldest first.
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_UPLOAD_MEMO_H_
