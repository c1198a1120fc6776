#include "storage/index.h"

#include <new>
#include <type_traits>

#include "common/hash.h"
#include "common/logging.h"

namespace eba {

namespace {

inline size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

constexpr size_t kMinDirCapacity = 64;
constexpr size_t kInitialBucketCapacity = 4;

}  // namespace

HashIndex::Bucket* HashIndex::NewBucket(size_t capacity) {
  void* mem = ::operator new(sizeof(Bucket) + capacity * sizeof(uint32_t));
  return new (mem) Bucket(capacity);
}

void HashIndex::FreeBucket(Bucket* b) {
  b->~Bucket();
  ::operator delete(b);
}

template <typename T>
void HashIndex::Retire(T* p) {
  constexpr bool is_bucket = std::is_same_v<T, Bucket>;
  if (epochs_ != nullptr) {
    epochs_->Retire([p] {
      if constexpr (is_bucket) {
        FreeBucket(p);
      } else {
        delete p;
      }
    });
  } else {
    if constexpr (is_bucket) {
      FreeBucket(p);
    } else {
      delete p;
    }
  }
}

HashIndex::HashIndex(const Column* column) : column_(column) {
  EBA_CHECK(column != nullptr);
  // Pre-size the directory with a quarter of the existing rows as the
  // distinct-key guess, bounding build-time rehash passes; it grows on
  // demand past that.
  const size_t guess =
      RoundUpPow2(std::max(kMinDirCapacity, column->size() / 4));
  dir_.store(new Dir(guess), std::memory_order_relaxed);
  ExtendTo(column->size());
}

HashIndex::~HashIndex() {
  Dir* dir = dir_.load(std::memory_order_relaxed);
  if (dir == nullptr) return;
  for (size_t i = 0; i <= dir->mask; ++i) {
    Bucket* b = dir->slots[i].bucket.load(std::memory_order_relaxed);
    if (b != nullptr) FreeBucket(b);
  }
  delete dir;
  // Superseded buckets/directories were retired to the EpochManager and
  // are not reachable from the current directory.
}

void HashIndex::InsertInt(int64_t key, uint32_t row) {
  Dir* dir = dir_.load(std::memory_order_relaxed);
  size_t i = Mix64(static_cast<uint64_t>(key)) & dir->mask;
  while (true) {
    Slot& slot = dir->slots[i];
    Bucket* b = slot.bucket.load(std::memory_order_relaxed);
    if (b == nullptr) {
      // Claim the empty slot: key first; the release store of the bucket
      // publishes the key and the first row together.
      slot.key = key;
      Bucket* fresh = NewBucket(kInitialBucketCapacity);
      fresh->rows()[0] = row;
      fresh->size.store(1, std::memory_order_relaxed);
      slot.bucket.store(fresh, std::memory_order_release);
      num_int_keys_.Increment();
      // Keep the load factor below 3/4 (int keys only; doubles live in
      // the boxed map).
      if (num_int_keys_.Load() * 4 > (dir->mask + 1) * 3) GrowDirectory();
      return;
    }
    if (slot.key == key) {
      const size_t n = b->size.load(std::memory_order_relaxed);
      if (n == b->capacity) {
        // Grow by copy: a reader still holding the old bucket keeps a
        // complete prefix; the old allocation is retired, not freed.
        Bucket* fresh = NewBucket(b->capacity * 2);
        std::copy(b->rows(), b->rows() + n, fresh->rows());
        fresh->rows()[n] = row;
        fresh->size.store(n + 1, std::memory_order_relaxed);
        slot.bucket.store(fresh, std::memory_order_release);
        Retire(b);
      } else {
        b->rows()[n] = row;
        b->size.store(n + 1, std::memory_order_release);
      }
      return;
    }
    i = (i + 1) & dir->mask;
  }
}

void HashIndex::GrowDirectory() {
  Dir* old = dir_.load(std::memory_order_relaxed);
  Dir* fresh = new Dir((old->mask + 1) * 2);
  // Private rebuild: no reader sees `fresh` until the release store below,
  // so plain stores suffice. Bucket allocations are shared, not copied —
  // a reader probing the old directory reaches the same (or a retired but
  // still-live prefix) bucket.
  for (size_t i = 0; i <= old->mask; ++i) {
    Bucket* b = old->slots[i].bucket.load(std::memory_order_relaxed);
    if (b == nullptr) continue;
    const int64_t key = old->slots[i].key;
    size_t j = Mix64(static_cast<uint64_t>(key)) & fresh->mask;
    while (fresh->slots[j].bucket.load(std::memory_order_relaxed) !=
           nullptr) {
      j = (j + 1) & fresh->mask;
    }
    fresh->slots[j].key = key;
    fresh->slots[j].bucket.store(b, std::memory_order_relaxed);
  }
  dir_.store(fresh, std::memory_order_release);
  Retire(old);
}

void HashIndex::ExtendTo(size_t num_rows) {
  // Clamp to the column's published size: the fold may run concurrently
  // with the table writer, and rows past the publication watermark are
  // not yet readable.
  const size_t target = std::min(num_rows, column_->size());
  const size_t from = indexed_rows_.LoadRelaxed();
  if (target <= from) return;
  if (column_->IsIntLike() || column_->IsString()) {
    // Chunk-aware fold: the span callback hands a raw per-chunk payload
    // array (int values or dictionary codes), so the inner loop indexes a
    // plain array instead of doing shift+mask access per row.
    column_->ForEachInt64Span(
        from, target,
        [&](size_t first_row, const int64_t* data, size_t count) {
          for (size_t i = 0; i < count; ++i) {
            const size_t row = first_row + i;
            if (column_->IsNull(row)) continue;
            InsertInt(data[i], static_cast<uint32_t>(row));
          }
        });
  } else {
    WriterMutexLock lock(value_mu_);
    for (size_t row = from; row < target; ++row) {
      if (column_->IsNull(row)) continue;
      value_map_[column_->Get(row)].push_back(static_cast<uint32_t>(row));
    }
  }
  // Published last: a reader observing indexed_rows() >= its bound also
  // observes every insert for rows below the bound.
  indexed_rows_.Publish(target);
}

std::vector<uint32_t> HashIndex::Lookup(const Value& v, size_t bound) const {
  if (v.is_null()) return {};
  if (column_->IsIntLike()) {
    if (v.type() != DataType::kBool && v.type() != DataType::kInt64 &&
        v.type() != DataType::kTimestamp) {
      return {};
    }
    RowIdSpan span = LookupInt64(v.RawInt64()).ClampTo(bound);
    return std::vector<uint32_t>(span.begin(), span.end());
  }
  if (column_->IsString()) {
    if (v.type() != DataType::kString) return {};
    auto code = column_->FindStringCode(v.AsString());
    if (!code) return {};
    RowIdSpan span = LookupInt64(*code).ClampTo(bound);
    return std::vector<uint32_t>(span.begin(), span.end());
  }
  SharedMutexLock lock(value_mu_);
  auto it = value_map_.find(v);
  if (it == value_map_.end()) return {};
  const std::vector<uint32_t>& rows = it->second;
  auto cut = std::lower_bound(rows.begin(), rows.end(),
                              static_cast<uint32_t>(bound));
  return std::vector<uint32_t>(rows.begin(), cut);
}

std::vector<int64_t> HashIndex::TranslateCodesFrom(
    const Column& probe_column) const {
  EBA_CHECK(column_->IsString());
  EBA_CHECK(probe_column.IsString());
  std::vector<int64_t> translated(probe_column.DictionarySize(), -1);
  for (size_t code = 0; code < translated.size(); ++code) {
    auto own = column_->FindStringCode(
        probe_column.DictionaryEntry(static_cast<int64_t>(code)));
    if (own) translated[code] = *own;
  }
  return translated;
}

size_t HashIndex::NumDistinctKeys() const {
  size_t n = static_cast<size_t>(num_int_keys_.Load());
  SharedMutexLock lock(value_mu_);
  n += value_map_.size();
  return n;
}

}  // namespace eba
