// EpochManager: epoch-based reclamation for retired column-tail state.
//
// The snapshot layer lets readers walk append-only structures lock-free
// while the single writer grows them. Almost everything is publish-in-place
// (slots below a PublishedSize watermark never move), but two allocations
// do get superseded as a table grows: a ChunkedVector's chunk-pointer
// directory when it doubles, and a HashIndex's slot directory / per-key row
// buckets when they fill. The writer cannot free the old allocation
// immediately — a reader that loaded the pointer a microsecond earlier may
// still be iterating it — so it *retires* the allocation here instead.
//
// The protocol is the classic three-phase EBR, deliberately run under a
// plain mutex rather than per-thread epoch slots: pins happen once per
// snapshot (i.e. once per query or audit, not per probe), so a mutex is
// cold, simple, and obviously correct, while the data-structure read paths
// the pins protect stay entirely lock-free.
//
//   * A reader pins the current epoch when it creates a snapshot and
//     unpins when the snapshot is destroyed.
//   * The writer retires an allocation with a deleter; the retirement is
//     stamped with a fresh epoch strictly greater than any pin taken
//     before it.
//   * A retired allocation is freed once every pin taken at or before its
//     retirement epoch is gone: later pins cannot have observed the old
//     pointer (it was unreachable before they pinned).
//
// With no readers pinned, Retire frees eagerly — single-threaded callers
// (loads, tests, standalone tables) pay one mutex hop and no deferral.

#ifndef EBA_STORAGE_EPOCH_H_
#define EBA_STORAGE_EPOCH_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace eba {

class EpochManager {
 public:
  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;
  ~EpochManager() {
    // Any still-retired allocation is unreachable by construction (pins
    // must not outlive the manager; Database owns both sides).
    for (auto& r : retired_) r.free();
  }

  /// Reader side: pin the current epoch. Pair with Unpin (Snapshot's pin
  /// token does this via RAII).
  uint64_t Pin() EBA_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    ++pins_[epoch_];
    return epoch_;
  }

  void Unpin(uint64_t epoch) EBA_EXCLUDES(mu_) {
    std::vector<Retired> free_now;
    {
      MutexLock lock(mu_);
      auto it = pins_.find(epoch);
      if (it != pins_.end() && --it->second == 0) pins_.erase(it);
      CollectLocked(&free_now);
    }
    // Deleters run outside the lock: they may be arbitrarily expensive and
    // must not serialize against concurrent Pin/Retire.
    for (auto& r : free_now) r.free();
  }

  /// Writer side: defer freeing `free` until every currently pinned reader
  /// has unpinned. Freed immediately when nothing is pinned.
  template <typename FreeFn>
  void Retire(FreeFn&& free) EBA_EXCLUDES(mu_) {
    std::vector<Retired> free_now;
    {
      MutexLock lock(mu_);
      // Advance the epoch so readers pinning after this retirement are
      // provably unable to hold the retired pointer.
      const uint64_t stamp = epoch_++;
      retired_.push_back(Retired{stamp, std::forward<FreeFn>(free)});
      CollectLocked(&free_now);
    }
    for (auto& r : free_now) r.free();
  }

  /// Diagnostics for tests and the README's reclamation story.
  size_t pinned_snapshots() const EBA_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    size_t n = 0;
    for (const auto& [epoch, count] : pins_) n += count;  // lint:ordered
    return n;
  }
  size_t retired_pending() const EBA_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return retired_.size();
  }
  uint64_t freed_total() const EBA_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return freed_;
  }

 private:
  struct Retired {
    uint64_t epoch;
    std::function<void()> free;
  };

  void CollectLocked(std::vector<Retired>* free_now) EBA_REQUIRES(mu_) {
    const uint64_t min_pinned =
        pins_.empty() ? UINT64_MAX : pins_.begin()->first;
    // Free once every pin taken at or before the retirement stamp is gone
    // (pins_ is an ordered map, so begin() is the oldest pin). Stamps
    // ascend in retirement order, so the freeable entries are a prefix and
    // a retirement under a long-held pin costs O(1), not a scan of every
    // entry that pin keeps.
    while (!retired_.empty() && retired_.front().epoch < min_pinned) {
      free_now->push_back(std::move(retired_.front()));
      retired_.pop_front();
      ++freed_;
    }
  }

  mutable Mutex mu_;
  uint64_t epoch_ EBA_GUARDED_BY(mu_) = 1;
  std::map<uint64_t, uint32_t> pins_ EBA_GUARDED_BY(mu_);
  std::deque<Retired> retired_ EBA_GUARDED_BY(mu_);  // stamps ascend
  uint64_t freed_ EBA_GUARDED_BY(mu_) = 0;
};

/// RAII pin held by a Database::Snapshot; copyable snapshots share one pin.
class EpochPin {
 public:
  EpochPin(EpochManager* manager, uint64_t epoch)
      : manager_(manager), epoch_(epoch) {}
  ~EpochPin() {
    if (manager_ != nullptr) manager_->Unpin(epoch_);
  }
  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;

 private:
  EpochManager* manager_;
  uint64_t epoch_;
};

}  // namespace eba

#endif  // EBA_STORAGE_EPOCH_H_
