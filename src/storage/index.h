// HashIndex: an equi-join index over one column, probe-able by
// snapshot-pinned readers while the (single, serialized) mutator extends it
// past the append watermark.
//
// Integer-like columns index their raw int64 payloads; string columns index
// dictionary codes (probing translates the probe string through the
// dictionary, so cross-column string joins work); doubles fall back to a
// mutex-guarded Value-keyed map (the cold boxed-oracle path). NULL cells are
// never indexed — a NULL join key matches nothing, mirroring SQL equi-join
// semantics.
//
// Layout: an open-addressing directory of {key, bucket*} slots probed with
// linear probing, where each bucket is a single allocation holding the
// key's row ids in ascending order behind a release-published count.
// Readers are entirely lock-free:
//
//   * An empty (null-bucket) slot is a stop sentinel. Linear probing
//     without deletions makes this sound: if a reader's key were stored
//     beyond an empty slot on its probe path, that slot must have been
//     occupied when the key was inserted — slots never empty out.
//   * The mutator writes a slot's key before release-publishing its bucket
//     pointer, so a reader that observes the bucket also observes the key.
//   * Buckets grow by copy: the mutator builds a larger bucket, publishes
//     it in the slot, and retires the old one to the EpochManager. A
//     reader still iterating the old bucket sees a complete prefix — every
//     row id below the watermark at which the reader obtained the index
//     was already in it.
//   * The directory grows the same way (private rebuild moving bucket
//     pointers, release publish, retire). Keys inserted only into the new
//     directory first occur in rows past any older reader's bound, so a
//     miss in a stale directory is still a correct (empty-after-clamp)
//     answer.
//
// Every lookup returns rows in ascending order; snapshot readers clamp the
// span to their pinned watermark with RowIdSpan::ClampTo, which is how one
// shared index serves snapshots pinned at different watermarks.
//
// Mutation (construction, ExtendTo) must stay serialized — Table's lazy
// mutex provides that — but runs concurrently with readers.

#ifndef EBA_STORAGE_INDEX_H_
#define EBA_STORAGE_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/value.h"
#include "storage/column.h"
#include "storage/epoch.h"

namespace eba {

/// A borrowed view of one key's row ids, ascending. Valid until the
/// holder's snapshot pin is released (epoch reclamation keeps the backing
/// bucket alive at least that long).
struct RowIdSpan {
  const uint32_t* data = nullptr;
  size_t count = 0;

  const uint32_t* begin() const { return data; }
  const uint32_t* end() const { return data + count; }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  uint32_t operator[](size_t i) const { return data[i]; }

  /// Restricts the span to rows below `bound` (a snapshot watermark).
  /// Rows ascend, so a span whose last row is below the bound (no append
  /// past the snapshot reached this key) is returned after one compare;
  /// otherwise the cut is a binary search.
  RowIdSpan ClampTo(size_t bound) const {
    if (count == 0 || data[count - 1] < bound) return *this;
    const uint32_t* cut =
        std::lower_bound(data, data + count, static_cast<uint32_t>(bound));
    return RowIdSpan{data, static_cast<size_t>(cut - data)};
  }
};

class HashIndex {
 public:
  /// Builds an index over `column` covering its current published size.
  /// The column must outlive the index.
  explicit HashIndex(const Column* column);
  ~HashIndex();
  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  /// Routes retired buckets/directories to the database's reclamation
  /// domain. Unattached indexes free retired allocations immediately
  /// (legal only without concurrent readers).
  void SetEpochManager(EpochManager* epochs) { epochs_ = epochs; }

  /// Row ids whose cell equals `v`, restricted to rows below `bound`;
  /// empty if none (or v is NULL). The boxed slow path: copies, and takes
  /// the value-map mutex for double columns. Use the typed spans in loops.
  std::vector<uint32_t> Lookup(const Value& v, size_t bound) const;

  /// Fast path for integer-like columns. Lock-free; caller clamps.
  RowIdSpan LookupInt64(int64_t key) const {
    const Dir* dir = dir_.load(std::memory_order_acquire);
    size_t i = Mix64(static_cast<uint64_t>(key)) & dir->mask;
    while (true) {
      const Slot& slot = dir->slots[i];
      const Bucket* b = slot.bucket.load(std::memory_order_acquire);
      // Null bucket = stop sentinel: linear probing without deletions means
      // this key cannot be stored past an empty slot on its probe path.
      if (b == nullptr) return RowIdSpan{};
      if (slot.key == key) {
        return RowIdSpan{b->rows(), b->size.load(std::memory_order_acquire)};
      }
      i = (i + 1) & dir->mask;
    }
  }

  /// Fast path for string columns: probes by a dictionary code of the
  /// *indexed* column (string payloads are codes, so this is the string
  /// analog of LookupInt64). Foreign codes must be translated first — see
  /// TranslateCodesFrom.
  RowIdSpan LookupCode(int64_t code) const { return LookupInt64(code); }

  /// Builds the probe-side code translation for a string-string equi-join:
  /// result[c] is the indexed column's code for probe_column's dictionary
  /// entry `c`, or -1 when the string does not occur in the indexed column.
  /// Computed once per join (O(|probe dictionary|)), it turns every probe
  /// into an array lookup plus LookupCode — no per-row string hashing.
  std::vector<int64_t> TranslateCodesFrom(const Column& probe_column) const;

  /// Number of distinct (non-NULL) keys folded in so far.
  size_t NumDistinctKeys() const;

  /// Rows already folded into the index (release-published after the fold:
  /// a reader observing indexed_rows() >= bound may probe clamped to
  /// bound). Smaller than the column size iff rows were appended since the
  /// last extension.
  size_t indexed_rows() const { return indexed_rows_.Load(); }

  /// Folds rows [indexed_rows(), num_rows) into the index. A no-op when
  /// the index already covers the range; never touches the indexed prefix.
  /// Mutators must be serialized (Table's lazy mutex); readers need not.
  void ExtendTo(size_t num_rows);

 private:
  /// One key's row ids: a single allocation with the ids trailing the
  /// header, ascending, behind a release-published count.
  struct Bucket {
    explicit Bucket(size_t cap) : capacity(cap) {}
    const size_t capacity;
    std::atomic<size_t> size{0};
    uint32_t* rows() { return reinterpret_cast<uint32_t*>(this + 1); }
    const uint32_t* rows() const {
      return reinterpret_cast<const uint32_t*>(this + 1);
    }
  };

  struct Slot {
    int64_t key = 0;  // written before `bucket` is published
    std::atomic<Bucket*> bucket{nullptr};
  };

  /// The open-addressing directory. `mask` and the slot array are
  /// immutable after construction (published by the release store of
  /// dir_); only slot contents mutate.
  struct Dir {
    explicit Dir(size_t capacity)
        : mask(capacity - 1), slots(new Slot[capacity]) {}
    const size_t mask;
    std::unique_ptr<Slot[]> slots;
  };

  static Bucket* NewBucket(size_t capacity);
  static void FreeBucket(Bucket* b);
  template <typename T>
  void Retire(T* p);

  void InsertInt(int64_t key, uint32_t row);
  void GrowDirectory();

  const Column* column_;
  PublishedSize indexed_rows_;
  std::atomic<Dir*> dir_{nullptr};
  AtomicCounter num_int_keys_;
  EpochManager* epochs_ = nullptr;

  /// Double columns only: boxed fallback map. Mutated under the writer
  /// lock by ExtendTo; Lookup copies under the shared lock.
  mutable SharedMutex value_mu_;
  std::unordered_map<Value, std::vector<uint32_t>> value_map_
      EBA_GUARDED_BY(value_mu_);
};

}  // namespace eba

#endif  // EBA_STORAGE_INDEX_H_
