#include "common/flat_hash.h"

#include <limits>
#include <utility>

#include "common/logging.h"

namespace eba {

namespace {

/// The smallest power-of-two slot count, at least 16, that holds
/// `expected` keys at most half full.
size_t SlotsFor(size_t expected) {
  size_t slots = 16;
  while (slots < 2 * expected) slots <<= 1;
  return slots;
}

/// One or two columns: tuple i packs into the FlatSet64 key c0[i], or
/// c0[i] << 32 | c1[i].
void FirstOccurrencesOfKeys(const std::vector<std::vector<uint32_t>>& columns,
                            std::vector<uint32_t>* keep) {
  const std::vector<uint32_t>& c0 = columns[0];
  const bool pairs = columns.size() == 2;
  const size_t n = c0.size();
  FlatSet64 seen(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t key = c0[i];
    if (pairs) key = key << 32 | columns[1][i];
    if (seen.Insert(key)) keep->push_back(static_cast<uint32_t>(i));
  }
}

void FirstOccurrencesOfTuples(const std::vector<std::vector<uint32_t>>& columns,
                              std::vector<uint32_t>* keep) {
  constexpr uint32_t kNoTuple = std::numeric_limits<uint32_t>::max();
  const size_t n = columns[0].size();
  std::vector<uint32_t> table(SlotsFor(n), kNoTuple);
  const size_t mask = table.size() - 1;
  auto same = [&columns](uint32_t a, uint32_t b) {
    for (const std::vector<uint32_t>& col : columns) {
      if (col[a] != col[b]) return false;
    }
    return true;
  };
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t h = 0;
    for (const std::vector<uint32_t>& col : columns) h = Mix64(h ^ col[i]);
    size_t j = static_cast<size_t>(h) & mask;
    while (table[j] != kNoTuple && !same(table[j], i)) j = (j + 1) & mask;
    if (table[j] != kNoTuple) continue;
    table[j] = i;
    keep->push_back(i);
  }
}

}  // namespace

void FlatSet64::Reserve(size_t expected) {
  const size_t slots = SlotsFor(expected);
  if (slots > slots_.size()) Rehash(slots);
}

void FlatSet64::Rehash(size_t slots) {
  std::vector<uint64_t> old = std::exchange(slots_, {});
  slots_.assign(slots, kFree);
  mask_ = slots - 1;
  for (uint64_t key : old) {
    if (key != kFree) slots_[FreeSlot(key)] = key;
  }
}

std::vector<uint32_t> FirstOccurrences(
    const std::vector<std::vector<uint32_t>>& columns) {
  std::vector<uint32_t> keep;
  const size_t n = columns.empty() ? 0 : columns[0].size();
  if (n == 0) return keep;
  // Tuple indexes are uint32_t, and the widest marks a free table slot.
  EBA_CHECK(n < std::numeric_limits<uint32_t>::max());
  for (const std::vector<uint32_t>& col : columns) EBA_CHECK(col.size() == n);
  keep.reserve(n);
  if (columns.size() <= 2) {
    FirstOccurrencesOfKeys(columns, &keep);
  } else {
    FirstOccurrencesOfTuples(columns, &keep);
  }
  return keep;
}

}  // namespace eba
