// ThreadPool: a fixed-size worker pool with one shared FIFO queue (no work
// stealing). Intended for coarse-grained, read-mostly parallelism such as
// evaluating independent explanation templates or classifying disjoint log
// shards; tasks should be large enough to amortize one mutex hop each.
//
// ParallelFor is the main entry point for callers: it fans a shard function
// out over a pool the caller keeps across rounds and blocks until every
// shard finished, running inline without a pool.

#ifndef EBA_COMMON_THREAD_POOL_H_
#define EBA_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace eba {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);

  /// Runs every queued task, then joins the workers.
  ~ThreadPool() EBA_EXCLUDES(mu_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues a task. Tasks must not throw; wrap fallible work so failures
  /// are reported through captured state (e.g. a StatusOr slot per task).
  void Submit(std::function<void()> task) EBA_EXCLUDES(mu_);

 private:
  void WorkerLoop() EBA_EXCLUDES(mu_);

  Mutex mu_;
  CondVar task_ready_;
  std::queue<std::function<void()>> tasks_ EBA_GUARDED_BY(mu_);
  bool shutting_down_ EBA_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

/// Runs fn(shard) for every shard in [0, num_shards) on `pool`'s workers
/// and the calling thread, and blocks until all shards finished; the pool
/// is reused across rounds, so its threads are spawned once. `pool ==
/// nullptr` runs every shard inline. If any shard throws, the first
/// exception (in shard order) is rethrown on the calling thread after all
/// shards finished. Completion is tracked per call, not pool-wide, and the
/// calling thread participates in running shards, so the call is safe to
/// nest: an inner ParallelFor issued from inside a shard of an outer one
/// always makes progress on the caller's own thread even when every pool
/// worker is busy.
void ParallelFor(ThreadPool* pool, size_t num_shards,
                 const std::function<void(size_t)>& fn);

/// A contiguous half-open range of rows assigned to one shard.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Splits [0, n) into at most `max_shards` contiguous ranges of at least
/// `min_per_shard` elements each; when the division is uneven, the leading
/// shards each take one extra element (shard sizes never differ by more
/// than one). Returns an empty vector when n == 0.
std::vector<ShardRange> SplitShards(size_t n, size_t max_shards,
                                    size_t min_per_shard);

/// std::thread::hardware_concurrency with a floor of 1.
size_t HardwareThreads();

}  // namespace eba

#endif  // EBA_COMMON_THREAD_POOL_H_
