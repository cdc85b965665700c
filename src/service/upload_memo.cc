#include "service/upload_memo.h"

#include <cstring>

#include "common/rng.h"
#include "service/scheduler.h"

namespace adahealth {
namespace service {

namespace {

constexpr size_t kStripeBytes = 64;
constexpr size_t kLanes = 4;

uint64_t Fold(uint64_t a, uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(product) ^
         static_cast<uint64_t>(product >> 64);
}

uint64_t Word(const char* bytes) {
  uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof(word));
  return word;
}

}  // namespace

LineDigester::LineDigester(uint64_t seed) {
  for (uint64_t& word : key_) word = common::SplitMix64Next(seed);
}

const LineDigester& LineDigester::ProcessKeyed() {
  static const LineDigester digester(common::EntropySeed());
  return digester;
}

Digest128 LineDigester::Digest(std::string_view bytes) const {
  // Key words per half: [0, 4) start the lanes, [4, 8) key the words,
  // [8, 10) key the finish.
  const uint64_t* lo_key = key_;
  const uint64_t* hi_key = key_ + kKeyWordsPerHalf;
  uint64_t lo[kLanes];
  uint64_t hi[kLanes];
  for (size_t i = 0; i < kLanes; ++i) {
    lo[i] = lo_key[i];
    hi[i] = hi_key[i];
  }
  auto absorb = [&](const char* stripe) {
    for (size_t i = 0; i < kLanes; ++i) {
      const uint64_t a = Word(stripe + 16 * i);
      const uint64_t b = Word(stripe + 16 * i + 8);
      lo[i] = Fold(a ^ lo_key[4 + i], b ^ lo[i]);
      hi[i] = Fold(b ^ hi_key[4 + i], a ^ hi[i]);
    }
  };
  size_t offset = 0;
  for (; offset + kStripeBytes <= bytes.size(); offset += kStripeBytes) {
    absorb(bytes.data() + offset);
  }
  if (offset < bytes.size()) {
    char tail[kStripeBytes] = {};
    std::memcpy(tail, bytes.data() + offset, bytes.size() - offset);
    absorb(tail);
  }
  const uint64_t length = bytes.size();
  auto finish = [length](const uint64_t* lanes, const uint64_t* key) {
    const uint64_t h = Fold(lanes[0] ^ key[8], lanes[1] ^ length);
    return Fold(h ^ lanes[2], lanes[3] ^ key[9]);
  };
  return Digest128{finish(lo, lo_key), finish(hi, hi_key)};
}

const UploadRoute* UploadMemo::Find(const Key& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void UploadMemo::Insert(const Key& key, const UploadRoute& route) {
  if (!entries_.try_emplace(key, route).second) return;
  order_.push_back(key);
  if (order_.size() > kRetainedJobs) {
    entries_.erase(order_.front());
    order_.pop_front();
  }
}

}  // namespace service
}  // namespace adahealth
