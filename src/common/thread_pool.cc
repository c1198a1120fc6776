#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace eba {

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  task_ready_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  EBA_CHECK(task != nullptr);
  {
    MutexLock lock(mu_);
    EBA_CHECK_MSG(!shutting_down_, "Submit after ThreadPool destruction began");
    tasks_.push(std::move(task));
  }
  task_ready_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // Predicate waits are spelled as explicit loops so the guarded reads
      // stay inside the annotated locked scope (a predicate lambda would be
      // analyzed as an unannotated function).
      while (!shutting_down_ && tasks_.empty()) task_ready_.Wait(mu_);
      if (tasks_.empty()) return;  // shutting down and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

/// Per-call completion state for the pooled ParallelFor. Shards are handed
/// out through an atomic counter so the caller and any number of pool
/// helpers can pull work concurrently; `errors` is written at distinct
/// indices only and read after every shard completed.
struct ParallelForState {
  std::atomic<size_t> next_shard{0};
  std::atomic<size_t> completed{0};
  // mu/done only sequence the caller's sleep against the last completion
  // notification; the shared progress counters are the atomics above and
  // `errors` is written at distinct indices only, so nothing is guarded.
  Mutex mu;
  CondVar done;
  std::vector<std::exception_ptr> errors;
};

/// Pulls shards until the dispatch counter runs dry. `fn` is guaranteed
/// alive whenever a shard is claimed: the caller blocks until every claimed
/// shard reported completion.
void RunShards(const std::shared_ptr<ParallelForState>& state,
               const std::function<void(size_t)>* fn, size_t num_shards) {
  for (;;) {
    const size_t s = state->next_shard.fetch_add(1);
    if (s >= num_shards) return;
    try {
      (*fn)(s);
    } catch (...) {
      state->errors[s] = std::current_exception();
    }
    if (state->completed.fetch_add(1) + 1 == num_shards) {
      MutexLock lock(state->mu);
      state->done.NotifyAll();
    }
  }
}

}  // namespace

void ParallelFor(ThreadPool* pool, size_t num_shards,
                 const std::function<void(size_t)>& fn) {
  if (num_shards == 0) return;
  if (pool == nullptr || num_shards == 1) {
    // Same contract as the pooled path: every shard runs, then the first
    // error (in shard order) is rethrown.
    std::vector<std::exception_ptr> errors(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      try {
        fn(s);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    }
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    return;
  }
  auto state = std::make_shared<ParallelForState>();
  state->errors.resize(num_shards);
  // The caller is one worker; enlist at most num_shards - 1 helpers. A
  // helper that wakes up after the shards ran out exits touching only its
  // shared_ptr copy of the state.
  const size_t helpers = std::min(pool->num_threads(), num_shards - 1);
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([state, fn_ptr = &fn, num_shards] {
      RunShards(state, fn_ptr, num_shards);
    });
  }
  RunShards(state, &fn, num_shards);
  {
    MutexLock lock(state->mu);
    while (state->completed.load() != num_shards) state->done.Wait(state->mu);
  }
  for (auto& e : state->errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<ShardRange> SplitShards(size_t n, size_t max_shards,
                                    size_t min_per_shard) {
  std::vector<ShardRange> shards;
  if (n == 0) return shards;
  size_t per = std::max<size_t>(1, min_per_shard);
  size_t count = std::max<size_t>(1, std::min(max_shards, n / per));
  size_t base = n / count;
  size_t extra = n % count;  // first `extra` shards get one more row
  size_t begin = 0;
  for (size_t s = 0; s < count; ++s) {
    size_t len = base + (s < extra ? 1 : 0);
    shards.push_back(ShardRange{begin, begin + len});
    begin += len;
  }
  return shards;
}

size_t HardwareThreads() {
  unsigned int n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

}  // namespace eba
