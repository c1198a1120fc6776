// ChunkedVector: a fixed-chunk append-only vector for column payloads,
// readable by snapshot-pinned readers while the single writer appends.
//
// The monolithic std::vector payload was the scaling bottleneck: growing an
// 18M-row column reallocates and copies hundreds of megabytes. The chunked
// layout fixed that for serial use; the snapshot layer tightens the
// contract to single-writer/multi-reader:
//
//   * Chunks are allocated at full capacity up front and never reallocate
//     or move — a slot's address is stable for the structure's lifetime,
//     so a reader holding a span is never invalidated by an append (the
//     old tail chunk's geometric std::vector growth was a realloc race).
//   * The chunk-pointer directory is published through an atomic pointer.
//     When it fills, the writer builds a larger copy, publishes it with a
//     release store, and *retires* the old array to the EpochManager —
//     readers that loaded it before the swap keep iterating it safely
//     until their snapshot pin is released (see storage/epoch.h).
//   * size() is a release-published watermark (common/mutex.h
//     PublishedSize): a reader that observes size n also observes every
//     slot below n fully written. Readers must bound every access by a
//     size they loaded; the snapshot layer above bounds them by the
//     pinned append watermark, which is never ahead of size().
//
// Only the operations Column needs are provided; this is not a general
// std::vector replacement. Random access is shift+mask+double-indirection;
// sequential scans should use ForEachSpan, which hands out raw per-chunk
// spans so inner loops run at plain-array speed.

#ifndef EBA_STORAGE_CHUNK_H_
#define EBA_STORAGE_CHUNK_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/mutex.h"
#include "storage/epoch.h"

namespace eba {

/// Rows per chunk. 64k rows keeps an int64 chunk at 512 KB — large enough
/// that per-chunk overhead (a directory slot, a ForEachSpan hop, a
/// checkpoint chunk record) vanishes, small enough that a chunk allocated
/// at full capacity up front wastes little on a short table.
inline constexpr size_t kColumnChunkShift = 16;
inline constexpr size_t kColumnChunkRows = size_t{1} << kColumnChunkShift;
inline constexpr size_t kColumnChunkMask = kColumnChunkRows - 1;

/// Chunk shift for dictionary entry storage: dictionaries hold distinct
/// values, not rows, so full 64k-slot chunks would waste megabytes per
/// string column. 1k entries per chunk keeps eager allocation small.
inline constexpr size_t kDictChunkShift = 10;

template <typename T, size_t Shift = kColumnChunkShift>
class ChunkedVector {
 public:
  static constexpr size_t kRows = size_t{1} << Shift;
  static constexpr size_t kMask = kRows - 1;

  ChunkedVector() = default;
  ChunkedVector(const ChunkedVector&) = delete;
  ChunkedVector& operator=(const ChunkedVector&) = delete;

  // Moves are not atomic: they happen while the structure is being set up
  // or torn down single-threaded (table construction, Database moves), with
  // the same external serialization as moving the owning aggregate.
  ChunkedVector(ChunkedVector&& other) noexcept
      : dir_(other.dir_.load(std::memory_order_relaxed)),
        dir_capacity_(other.dir_capacity_),
        num_chunks_(other.num_chunks_),
        size_(std::move(other.size_)),
        epochs_(other.epochs_) {
    other.dir_.store(nullptr, std::memory_order_relaxed);
    other.dir_capacity_ = 0;
    other.num_chunks_ = 0;
    other.size_.Publish(0);
    other.epochs_ = nullptr;
  }
  ChunkedVector& operator=(ChunkedVector&& other) noexcept {
    if (this != &other) {
      Free();
      dir_.store(other.dir_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
      dir_capacity_ = other.dir_capacity_;
      num_chunks_ = other.num_chunks_;
      size_ = std::move(other.size_);
      epochs_ = other.epochs_;
      other.dir_.store(nullptr, std::memory_order_relaxed);
      other.dir_capacity_ = 0;
      other.num_chunks_ = 0;
      other.size_.Publish(0);
      other.epochs_ = nullptr;
    }
    return *this;
  }

  ~ChunkedVector() { Free(); }

  /// Attaches the reclamation domain retired directory arrays go to.
  /// Unattached structures (standalone tables, loads, tests) free retired
  /// arrays immediately — legal because they have no concurrent readers.
  void SetEpochManager(EpochManager* epochs) { epochs_ = epochs; }

  /// Reader-safe: everything below the returned value is fully written.
  size_t size() const { return size_.Load(); }
  bool empty() const { return size() == 0; }

  T& operator[](size_t i) {
    return dir_.load(std::memory_order_relaxed)[i >> Shift][i & kMask];
  }
  /// Reader-safe for i below a size() the caller observed.
  const T& operator[](size_t i) const {
    return dir_.load(std::memory_order_acquire)[i >> Shift][i & kMask];
  }

  void push_back(const T& v) {
    *NextSlot() = v;
    PublishAppend();
  }
  void push_back(T&& v) {
    *NextSlot() = std::move(v);
    PublishAppend();
  }

  /// Appends n elements with a single size publish: fill(slots, count)
  /// writes each run of fresh slots (at most one chunk's worth), in order.
  /// Readers see all n at once or none — the bulk-load path (checkpoint
  /// chunk images, null-bitmap backfill).
  template <typename Fill>
  void AppendBulk(size_t n, Fill&& fill) {
    size_t size = size_.LoadRelaxed();
    const size_t end = size + n;
    Reserve(end);
    while (size < end) {
      const size_t count = std::min(kRows - (size & kMask), end - size);
      fill(ChunkFor(size) + (size & kMask), count);
      size += count;
    }
    size_.Publish(end);
  }

  /// Pre-sizes the chunk directory for n total elements. Chunks themselves
  /// are always allocated at full capacity, so this only saves directory
  /// regrowth (and the epoch-retirements it would cause).
  void Reserve(size_t n) {
    const size_t need = (n + kRows - 1) >> Shift;
    if (need > dir_capacity_) GrowDirectory(need);
  }

  size_t num_chunks() const { return num_chunks_; }

  /// The published size and chunk directory, each loaded once.
  struct View {
    T* const* dir = nullptr;
    size_t size = 0;

    /// Slot i, for i below `size`.
    const T& operator[](size_t i) const { return dir[i >> Shift][i & kMask]; }
  };

  /// A view of every slot below the size it loads, for loops that index
  /// many slots without re-loading the directory per access. The size is
  /// loaded first: the directory loaded after it holds the chunk of every
  /// slot below it. A directory the writer retires after the load stays
  /// readable until the caller's snapshot pin is released (storage/epoch.h),
  /// so the view must not outlive that pin.
  View Published() const {
    const size_t n = size();
    return View{dir_.load(std::memory_order_acquire), n};
  }

  /// Invokes fn(first_row, data, count) for each maximal run of rows in
  /// [begin, end) lying within a single chunk; `data` points at the slot of
  /// row `first_row`. The chunk-aware scan primitive: index builds, stats
  /// folds, and kernel loops iterate spans instead of per-row operator[].
  /// `end` is clamped to the published size, so a racing append can only
  /// shrink the iteration, never expose unwritten slots.
  template <typename Fn>
  void ForEachSpan(size_t begin, size_t end, Fn&& fn) const {
    const size_t published = size();
    if (end > published) end = published;
    if (begin >= end) return;
    T* const* dir = dir_.load(std::memory_order_acquire);
    while (begin < end) {
      const size_t chunk = begin >> Shift;
      const size_t offset = begin & kMask;
      size_t count = kRows - offset;
      if (count > end - begin) count = end - begin;
      fn(begin, dir[chunk] + offset, count);
      begin += count;
    }
  }

 private:
  T* NextSlot() {
    const size_t n = size_.LoadRelaxed();
    return ChunkFor(n) + (n & kMask);
  }

  /// The chunk holding slot n, allocated when n is the first slot past the
  /// last chunk.
  T* ChunkFor(size_t n) {
    const size_t chunk = n >> Shift;
    if (chunk == num_chunks_) {
      if (chunk == dir_capacity_) GrowDirectory(dir_capacity_ + 1);
      // Full-capacity allocation: the chunk never grows in place, so a
      // reader's span pointer stays valid while the writer fills it.
      dir_.load(std::memory_order_relaxed)[chunk] = new T[kRows];
      ++num_chunks_;
    }
    return dir_.load(std::memory_order_relaxed)[chunk];
  }

  void PublishAppend() { size_.Publish(size_.LoadRelaxed() + 1); }

  void GrowDirectory(size_t min_capacity) {
    size_t capacity = dir_capacity_ > 0 ? dir_capacity_ * 2 : 8;
    while (capacity < min_capacity) capacity *= 2;
    T** fresh = new T*[capacity]();
    T** old = dir_.load(std::memory_order_relaxed);
    if (old != nullptr) std::copy(old, old + num_chunks_, fresh);
    // Publish before any slot of a new chunk is written through it; the
    // size watermark published after the write makes both visible.
    dir_.store(fresh, std::memory_order_release);
    dir_capacity_ = capacity;
    if (old != nullptr) {
      if (epochs_ != nullptr) {
        epochs_->Retire([old] { delete[] old; });
      } else {
        delete[] old;
      }
    }
  }

  void Free() {
    T** dir = dir_.load(std::memory_order_relaxed);
    if (dir == nullptr) return;
    for (size_t c = 0; c < num_chunks_; ++c) delete[] dir[c];
    delete[] dir;
    dir_.store(nullptr, std::memory_order_relaxed);
  }

  std::atomic<T**> dir_{nullptr};
  size_t dir_capacity_ = 0;  // writer-only
  size_t num_chunks_ = 0;    // writer-only
  PublishedSize size_;
  EpochManager* epochs_ = nullptr;
};

}  // namespace eba

#endif  // EBA_STORAGE_CHUNK_H_
