// Flat hash kernels: an open-addressing set of 64-bit keys, and the
// first-occurrence dedup of row-id tuples built beside it. Neither
// allocates per key, and neither can be iterated, so hash order never
// reaches a result.

#ifndef EBA_COMMON_FLAT_HASH_H_
#define EBA_COMMON_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"

namespace eba {

/// A set of 64-bit keys held in one flat array of slots, probed linearly
/// from Mix64 of the key and never more than half full. An insert writes a
/// slot and allocates nothing; the array doubles when it fills, or is
/// sized once up front when the key count is known. One value marks a
/// free slot; inserted as a key, it is held in a flag instead. Membership
/// is all a caller can read: there is deliberately no iteration.
class FlatSet64 {
 public:
  FlatSet64() = default;
  /// Sized so that `expected` inserts never grow the array.
  explicit FlatSet64(size_t expected) { Reserve(expected); }

  /// Adds `key`; true if it was not present.
  bool Insert(uint64_t key) {
    if (key == kFree) {
      const bool fresh = !holds_free_;
      holds_free_ = true;
      return fresh;
    }
    if (slots_.empty()) Reserve(1);
    size_t i = Home(key);
    for (; slots_[i] != kFree; i = (i + 1) & mask_) {
      if (slots_[i] == key) return false;
    }
    if (2 * (stored_ + 1) > slots_.size()) {
      Rehash(2 * slots_.size());
      i = FreeSlot(key);
    }
    slots_[i] = key;
    ++stored_;
    return true;
  }

  bool Contains(uint64_t key) const {
    if (key == kFree) return holds_free_;
    if (slots_.empty()) return false;
    for (size_t i = Home(key); slots_[i] != kFree; i = (i + 1) & mask_) {
      if (slots_[i] == key) return true;
    }
    return false;
  }

  size_t size() const { return stored_ + (holds_free_ ? 1 : 0); }
  bool empty() const { return size() == 0; }

 private:
  /// The free-slot mark: INT64_MIN's bit pattern, which no lid takes in
  /// practice and no pair of row ids below 2^31 packs to, so the flag path
  /// stays cold.
  static constexpr uint64_t kFree = uint64_t{1} << 63;

  size_t Home(uint64_t key) const {
    return static_cast<size_t>(Mix64(key)) & mask_;
  }
  size_t FreeSlot(uint64_t key) const {
    size_t i = Home(key);
    while (slots_[i] != kFree) i = (i + 1) & mask_;
    return i;
  }
  /// Grows the array to hold `expected` keys at most half full.
  void Reserve(size_t expected);
  /// Moves every key into a fresh array of `slots` (a power of two).
  void Rehash(size_t slots);

  std::vector<uint64_t> slots_;
  size_t mask_ = 0;          // slots_.size() - 1
  size_t stored_ = 0;        // keys held in slots_
  bool holds_free_ = false;  // kFree was inserted as a key
};

/// The indexes of the first occurrence of each distinct tuple, ascending,
/// where tuple i is (columns[0][i], columns[1][i], ...); every column has
/// the same length, below 2^32 - 1. One or two columns pack each tuple into
/// a 64-bit FlatSet64 key; three or more go through a table of tuple
/// indexes hashed over the tuple and compared in place. No path allocates
/// per tuple.
std::vector<uint32_t> FirstOccurrences(
    const std::vector<std::vector<uint32_t>>& columns);

}  // namespace eba

#endif  // EBA_COMMON_FLAT_HASH_H_
