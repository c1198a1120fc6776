// Concurrency stress suite for the capability-annotated surfaces, written
// to run under the TSAN CI job: ThreadPool destruction while ParallelFor
// callers still have shards in flight, and PlanCache lookups, inserts and
// stats reads hammered from several threads sharing one cache. The clang
// thread-safety analysis proves the lock discipline on every path at
// compile time; these tests give TSAN real interleavings of the same
// surfaces so the runtime and compile-time checks cover each other. The
// last test pins a reader whose join checks read column views while the
// writer republishes the chunk directories under it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/date.h"
#include "common/thread_pool.h"
#include "log/access_log.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/plan_cache.h"
#include "storage/chunk.h"
#include "storage/database.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::BuildPaperToyDatabase;
using testing_util::UnwrapOrDie;

// --------------------------- ThreadPool ---------------------------

// Destroying the pool while a ParallelFor caller still has shards running:
// the destructor must block until every queued helper task drained, and the
// caller's ParallelFor must complete every shard exactly once. Destruction
// may only begin once the caller has finished submitting helpers, which is
// guaranteed here by waiting until the caller thread itself is inside a
// shard (ParallelFor submits all helpers before the caller runs any shard).
TEST(ConcurrencyTest, ThreadPoolDestructionWithParallelForInFlight) {
  constexpr size_t kShards = 16;
  auto pool = std::make_unique<ThreadPool>(3);

  std::atomic<bool> caller_in_shard{false};
  std::atomic<bool> release{false};
  std::atomic<size_t> executed{0};
  std::thread::id caller_id;

  std::thread caller([&] {
    caller_id = std::this_thread::get_id();
    ParallelFor(pool.get(), kShards, [&](size_t) {
      if (std::this_thread::get_id() == caller_id) {
        caller_in_shard.store(true);
      }
      while (!release.load()) std::this_thread::yield();
      executed.fetch_add(1);
    });
  });

  while (!caller_in_shard.load()) std::this_thread::yield();
  release.store(true);
  // Races pool teardown against the still-draining helper tasks; the
  // destructor must not return before every claimed shard completed.
  pool.reset();
  caller.join();
  EXPECT_EQ(executed.load(), kShards);
}

// Several caller threads share one pool; the pool is destroyed only after
// every caller thread is observed inside a shard of its own ParallelFor
// (i.e. after all Submits), while most shards are still in flight.
TEST(ConcurrencyTest, ThreadPoolDestructionWithConcurrentCallers) {
  constexpr size_t kCallers = 4;
  constexpr size_t kShards = 8;
  auto pool = std::make_unique<ThreadPool>(3);

  std::atomic<bool> release{false};
  std::atomic<size_t> executed{0};
  std::vector<std::atomic<bool>> caller_in_shard(kCallers);
  std::vector<std::thread::id> caller_ids(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      caller_ids[c] = std::this_thread::get_id();
      ParallelFor(pool.get(), kShards, [&, c](size_t) {
        if (std::this_thread::get_id() == caller_ids[c]) {
          caller_in_shard[c].store(true);
        }
        while (!release.load()) std::this_thread::yield();
        executed.fetch_add(1);
      });
    });
  }

  for (size_t c = 0; c < kCallers; ++c) {
    while (!caller_in_shard[c].load()) std::this_thread::yield();
  }
  release.store(true);
  pool.reset();
  for (auto& t : callers) t.join();
  EXPECT_EQ(executed.load(), kCallers * kShards);
}

// --------------------------- PlanCache ---------------------------

/// The Figure 3 toy queries (one plain join, one string-joined self-join
/// chain), the same shapes the determinism suite replays.
std::vector<PathQuery> ToyQueries(const Database& db) {
  std::vector<PathQuery> queries;
  queries.push_back(UnwrapOrDie(ParsePathQuery(
      db, "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User")));
  queries.push_back(UnwrapOrDie(ParsePathQuery(
      db, "Log L, Appointments A, Doctor_Info I1, Doctor_Info I2",
      "L.Patient = A.Patient AND A.Doctor = I1.Doctor AND "
      "I1.Department = I2.Department AND I2.Doctor = L.User")));
  return queries;
}

// Concurrent executions against one shared cache, racing its shared-lock
// stats/size readers against the lookup and insert writer path: exactly
// one plan per query shape should ever be resident once steady state is
// reached, and every replay must match the reference.
TEST(ConcurrencyTest, PlanCacheConcurrentSteadyStateReplays) {
  Database db = BuildPaperToyDatabase();
  const std::vector<PathQuery> queries = ToyQueries(db);
  const QAttr lid_attr{0, 0};

  Executor serial(&db);
  std::vector<std::vector<int64_t>> reference;
  for (const PathQuery& q : queries) {
    reference.push_back(UnwrapOrDie(serial.DistinctLids(q, lid_attr)));
  }

  PlanCache cache;
  constexpr size_t kThreads = 4;
  constexpr size_t kItersPerThread = 25;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ExecutorOptions options;
      options.plan_cache = &cache;
      Executor executor(&db, options);
      for (size_t i = 0; i < kItersPerThread; ++i) {
        const size_t qi = (t + i) % queries.size();
        auto lids_or = executor.DistinctLids(queries[qi], lid_attr);
        if (!lids_or.ok() || *lids_or != reference[qi]) {
          mismatches.fetch_add(1);
        }
        // Shared-lock readers racing the writer path above.
        (void)cache.stats();
        (void)cache.resident_bytes();
        (void)cache.size();
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  // The cache never evicts, so it converges to one resident plan per
  // shape; rebinds/invalidations never fire (no appends here).
  // Once a thread has inserted a shape itself, its own next lookup of that
  // shape must hit, so hits are guaranteed despite racy first inserts.
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(cache.size(), queries.size());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kItersPerThread);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(stats.rebinds, 0u);
}

// --------------------- Column views under a growing log ---------------------

// A reader pinned at a watermark just past the first chunk seam runs a
// repeat-access query (its join checks read User and Date through column
// views) while the writer appends User's first NULL, which backfills the
// null flags, and grows the log past the next seam and past the 8-chunk
// directory, so both directories are republished and retired under the
// reader's pin. Every run of the reader must return what a frozen clone at
// its watermark returns.
TEST(ConcurrencyTest, PinnedReaderSeesFrozenLidsWhileColumnsGrow) {
  constexpr size_t kPinnedRows = kColumnChunkRows + 1000;
  constexpr size_t kFinalRows = 8 * kColumnChunkRows + 1000;
  constexpr int64_t kPatients = 40000;
  Database db;
  EBA_ASSERT_OK(db.CreateTable(AccessLog::StandardSchema("Log")));
  Table* log = db.GetTable("Log").value();
  const int64_t start = Date::FromCivil(2011, 1, 1, 0, 0, 0).ToSeconds();
  auto append = [&](size_t r, bool null_user) {
    const int64_t row = static_cast<int64_t>(r);
    return log->AppendRow(
        {Value::Int64(row + 1), Value::Timestamp(start + row),
         null_user ? Value::Null() : Value::Int64(row % 7 == 0 ? 1 : 0),
         Value::Int64(row % kPatients), Value::String("viewed")});
  };
  for (size_t r = 0; r < kPinnedRows; ++r) {
    EBA_ASSERT_OK(append(r, /*null_user=*/false));
  }
  const PathQuery q = UnwrapOrDie(ParsePathQuery(
      db, "Log L, Log L2",
      "L.Patient = L2.Patient AND L2.User = L.User AND L.Date > L2.Date"));
  const QAttr lid{0, 0};
  const Database frozen = db.Clone();
  const std::vector<int64_t> expected =
      UnwrapOrDie(Executor(&frozen).DistinctLids(q, lid));
  ASSERT_FALSE(expected.empty());

  const Executor reader(db.CreateSnapshot());
  ASSERT_EQ(UnwrapOrDie(reader.DistinctLids(q, lid)), expected);
  std::atomic<bool> writer_done{false};
  std::atomic<size_t> runs{0};
  std::atomic<size_t> mismatches{0};
  std::thread reader_thread([&] {
    while (true) {
      const bool last = writer_done.load();
      auto lids = reader.DistinctLids(q, lid);
      if (!lids.ok() || *lids != expected) mismatches.fetch_add(1);
      runs.fetch_add(1);
      if (last) break;
    }
  });
  while (runs.load() == 0) std::this_thread::yield();
  Status status = append(kPinnedRows, /*null_user=*/true);
  for (size_t r = kPinnedRows + 1; status.ok() && r < kFinalRows; ++r) {
    status = append(r, /*null_user=*/r % 10 == 0);
  }
  writer_done.store(true);
  reader_thread.join();
  EBA_EXPECT_OK(status);
  ASSERT_EQ(log->column(2).size(), kFinalRows);
  EXPECT_TRUE(log->column(2).IsNull(kPinnedRows));
  EXPECT_GE(runs.load(), 2u);
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace eba
