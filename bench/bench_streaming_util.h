// Shared streaming-ingest workload: sustained AppendAccessBatch calls
// interleaved with incremental ExplainNew audits and per-access Explain
// requests — the serving loop. Used by bench_micro's --executor_json
// emitter (so the committed BENCH_executor.json carries the streaming
// numbers, and the CI regression gate sees them).
//
// The fixture generates the 14-day Small hospital, seeds a "LogStream"
// table with the first `seed_days` days, and streams the remaining rows in
// `num_batches` batches. The headline metric is the engine plan cache's
// hit rate under appends: with watermark re-binding it stays >= 90%
// (every append is a rebind + hit); with the old epoch-invalidation
// behavior every batch would invalidate every plan (~0%).

#ifndef EBA_BENCH_BENCH_STREAMING_UTIL_H_
#define EBA_BENCH_BENCH_STREAMING_UTIL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "careweb/generator.h"
#include "careweb/workload.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "log/access_log.h"
#include "storage/io.h"

namespace eba {

struct StreamingBenchOptions {
  bool smoke = false;     // fewer batches, same shape
  size_t num_batches = 0; // 0 = default (48, smoke 12)
  int seed_days = 7;      // LogStream starts with days [1, seed_days]
  size_t explains_per_batch = 4;  // per-access Explain calls per batch
  size_t num_threads = 1;
  // Foreign-append interleave phase: batches of synthetic Appointments rows
  // (each mostly witnessing an already-audited access) absorbed by the
  // reverse semi-join delta pass, then a few forced full re-audits for the
  // delta-vs-full cost ratio. 0 = default (12, smoke 6).
  size_t foreign_batches = 0;
  size_t foreign_rows_per_batch = 8;
  size_t full_reaudits_timed = 3;
};

struct StreamingBenchResult {
  size_t initial_rows = 0;
  size_t streamed_rows = 0;
  size_t num_batches = 0;
  size_t num_templates = 0;

  double append_seconds = 0.0;
  double explain_new_seconds = 0.0;
  double per_access_seconds = 0.0;
  size_t per_access_explains = 0;

  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t plan_rebinds = 0;
  uint64_t plan_invalidations = 0;

  // Foreign-append interleave phase (reverse semi-join delta audits).
  size_t foreign_batches = 0;
  size_t foreign_rows = 0;    // delta-phase appends (foreign_batches' worth)
  size_t reaudit_rows = 0;    // extra appends made by the timed A/B re-audits
  double foreign_delta_seconds = 0.0;  // total of the delta ExplainNew calls
  size_t delta_explained_total = 0;    // audited lids retroactively explained
  size_t delta_queries_total = 0;      // reverse semi-join evaluations run
  double full_reaudit_seconds = 0.0;   // total of the forced full re-audits
  size_t full_reaudits_timed = 0;

  double final_coverage = 0.0;
  /// Self-check: the incrementally accumulated explained set must equal a
  /// fresh full ExplainAll over the final log.
  bool matches_full_explain_all = false;

  double AppendsPerSecond() const {
    return append_seconds > 0.0
               ? static_cast<double>(streamed_rows) / append_seconds
               : 0.0;
  }
  double ExplainNewMsPerBatch() const {
    return num_batches > 0
               ? 1e3 * explain_new_seconds / static_cast<double>(num_batches)
               : 0.0;
  }
  double PerAccessExplainMs() const {
    return per_access_explains > 0
               ? 1e3 * per_access_seconds /
                     static_cast<double>(per_access_explains)
               : 0.0;
  }
  double PlanCacheHitRate() const {
    const uint64_t total = plan_hits + plan_misses;
    return total > 0 ? static_cast<double>(plan_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }
  double ForeignDeltaMsPerBatch() const {
    return foreign_batches > 0 ? 1e3 * foreign_delta_seconds /
                                     static_cast<double>(foreign_batches)
                               : 0.0;
  }
  double FullReauditMs() const {
    return full_reaudits_timed > 0
               ? 1e3 * full_reaudit_seconds /
                     static_cast<double>(full_reaudits_timed)
               : 0.0;
  }
  /// The headline delta metric: how much cheaper absorbing a foreign append
  /// via the reverse semi-join is than the pre-ISSUE-5 behaviour (a full
  /// re-audit). A within-run timing ratio, so it is machine-portable and
  /// gated by compare_bench.py. A delta phase too fast for the clock to
  /// resolve saturates high — it must not read as a regression against the
  /// gate's absolute floor.
  double DeltaSpeedupVsFullReaudit() const {
    const double delta_ms = ForeignDeltaMsPerBatch();
    if (delta_ms > 0.0) return FullReauditMs() / delta_ms;
    return FullReauditMs() > 0.0 ? 1e6 : 0.0;
  }
};

inline StreamingBenchResult RunStreamingBench(
    const StreamingBenchOptions& options) {
  using Clock = std::chrono::steady_clock;
  auto unwrap_status = [](const Status& s) {
    EBA_CHECK_MSG(s.ok(), s.ToString());
  };

  StreamingBenchResult result;
  result.num_batches =
      options.num_batches > 0 ? options.num_batches : (options.smoke ? 12 : 48);

  CareWebConfig config = CareWebConfig::Small();
  config.num_days = 14;
  auto generated = GenerateCareWeb(config);
  EBA_CHECK_MSG(generated.ok(), generated.status().ToString());
  CareWebData data = std::move(generated).value();

  const Table* source_log = data.db.GetTable("Log").value();
  auto source_view = AccessLog::Wrap(source_log);
  EBA_CHECK_MSG(source_view.ok(), source_view.status().ToString());
  auto slice = AddLogSlice(&data.db, "Log", "LogStream", 1, options.seed_days,
                           /*first_only=*/false);
  EBA_CHECK_MSG(slice.ok(), slice.status().ToString());

  std::unordered_set<size_t> seeded;
  for (size_t r : source_view->RowsInDayRange(1, options.seed_days)) {
    seeded.insert(r);
  }
  std::vector<Row> backlog;
  backlog.reserve(source_log->num_rows() - seeded.size());
  for (size_t r = 0; r < source_log->num_rows(); ++r) {
    if (!seeded.count(r)) backlog.push_back(source_log->GetRow(r));
  }
  const int lid_col = source_log->schema().ColumnIndex("Lid");

  auto created = StreamingAuditor::Create(&data.db, "LogStream");
  EBA_CHECK_MSG(created.ok(), created.status().ToString());
  StreamingAuditor auditor = std::move(created).value();
  auto templates = TemplatesHandcraftedDirect(data.db, true);
  EBA_CHECK_MSG(templates.ok(), templates.status().ToString());
  for (const auto& tmpl : *templates) {
    unwrap_status(auditor.AddTemplate(tmpl));
  }
  result.num_templates = auditor.engine().num_templates();
  result.initial_rows = data.db.GetTable("LogStream").value()->num_rows();
  result.streamed_rows = backlog.size();

  StreamingOptions stream_options;
  stream_options.num_threads = options.num_threads;

  // Cold audit of the seeded prefix (records the plans; excluded from the
  // interleaved timings below, like any warm-up).
  auto first = auditor.ExplainNew(stream_options);
  EBA_CHECK_MSG(first.ok(), first.status().ToString());

  const size_t batch_size =
      (backlog.size() + result.num_batches - 1) / result.num_batches;
  size_t next_explain = 0;
  for (size_t start = 0; start < backlog.size(); start += batch_size) {
    const size_t end = std::min(start + batch_size, backlog.size());
    const std::vector<Row> batch(backlog.begin() + start,
                                 backlog.begin() + end);

    const auto t0 = Clock::now();
    unwrap_status(auditor.AppendAccessBatch(batch));
    const auto t1 = Clock::now();
    auto report = auditor.ExplainNew(stream_options);
    EBA_CHECK_MSG(report.ok(), report.status().ToString());
    EBA_CHECK(!report->full_reaudit);
    const auto t2 = Clock::now();
    // The audit-portal shape: a few per-access explains against accesses of
    // this batch, spread deterministically across it.
    for (size_t k = 0; k < options.explains_per_batch && !batch.empty();
         ++k) {
      const Row& row = batch[(next_explain++) % batch.size()];
      auto instances = auditor.engine().Explain(
          row[static_cast<size_t>(lid_col)].AsInt64());
      EBA_CHECK_MSG(instances.ok(), instances.status().ToString());
      ++result.per_access_explains;
    }
    const auto t3 = Clock::now();

    result.append_seconds +=
        std::chrono::duration<double>(t1 - t0).count();
    result.explain_new_seconds +=
        std::chrono::duration<double>(t2 - t1).count();
    result.per_access_seconds +=
        std::chrono::duration<double>(t3 - t2).count();
  }

  // --- Foreign-append interleave: batches of synthetic appointments, each
  // --- witnessing an already-streamed access, absorbed by the reverse
  // --- semi-join delta pass (cost ~ the delta, not the log). ---
  const size_t foreign_batches = options.foreign_batches > 0
                                     ? options.foreign_batches
                                     : (options.smoke ? 6 : 12);
  const Table* stream = data.db.GetTable("LogStream").value();
  auto stream_view = AccessLog::Wrap(stream);
  EBA_CHECK_MSG(stream_view.ok(), stream_view.status().ToString());
  Random foreign_rng(20260728);
  auto synth_appointments = [&] {
    std::vector<Row> rows;
    rows.reserve(options.foreign_rows_per_batch);
    for (size_t i = 0; i < options.foreign_rows_per_batch; ++i) {
      const AccessLog::Entry e =
          stream_view->Get(foreign_rng.Uniform(stream->num_rows()));
      rows.push_back({Value::Int64(e.patient), Value::Timestamp(e.time - 1800),
                      Value::Int64(e.user)});
    }
    return rows;
  };
  for (size_t b = 0; b < foreign_batches; ++b) {
    // The append stays outside the timed window, mirroring the full
    // re-audit measurement below: both sides time the ExplainNew only.
    unwrap_status(auditor.AppendRows("Appointments", synth_appointments()));
    const auto t0 = Clock::now();
    auto report = auditor.ExplainNew(stream_options);
    EBA_CHECK_MSG(report.ok(), report.status().ToString());
    EBA_CHECK(!report->full_reaudit);  // the delta pass, never a re-audit
    const auto t1 = Clock::now();
    result.foreign_delta_seconds +=
        std::chrono::duration<double>(t1 - t0).count();
    result.delta_explained_total += report->delta_explained_lids.size();
    result.delta_queries_total += report->delta_queries;
  }
  result.foreign_batches = foreign_batches;
  result.foreign_rows = foreign_batches * options.foreign_rows_per_batch;

  // The pre-delta-path cost of the same drift for the A/B ratio: discard
  // the audit state (exactly what foreign drift used to trigger) and time
  // the resulting from-row-0 audit.
  for (size_t k = 0; k < options.full_reaudits_timed; ++k) {
    unwrap_status(auditor.AppendRows("Appointments", synth_appointments()));
    result.reaudit_rows += options.foreign_rows_per_batch;
    auditor.ResetAudit();
    const auto t0 = Clock::now();
    auto report = auditor.ExplainNew(stream_options);
    EBA_CHECK_MSG(report.ok(), report.status().ToString());
    EBA_CHECK(report->audited_from == 0 &&
              report->audited_to == stream->num_rows());
    const auto t1 = Clock::now();
    result.full_reaudit_seconds +=
        std::chrono::duration<double>(t1 - t0).count();
    ++result.full_reaudits_timed;
  }

  const PlanCache::Stats cache_stats =
      auditor.engine().plan_cache()->stats();
  result.plan_hits = cache_stats.hits;
  result.plan_misses = cache_stats.misses;
  result.plan_rebinds = cache_stats.rebinds;
  result.plan_invalidations = cache_stats.invalidations;

  // Self-check: incremental state vs a fresh full audit of the final log.
  auto full = auditor.engine().ExplainAll();
  EBA_CHECK_MSG(full.ok(), full.status().ToString());
  std::unordered_set<int64_t> full_set(full->explained_lids.begin(),
                                       full->explained_lids.end());
  result.matches_full_explain_all = auditor.ExplainedSetEquals(full_set);
  result.final_coverage = full->Coverage();
  return result;
}

// ---------------------------------------------------------------------------
// Concurrent-ingest phase: what do snapshot-pinned readers cost the writer?
// Phase A appends the backlog with no readers (the append-only baseline);
// phase B replays the identical batches on an identical fresh hospital
// while reader threads continuously audit (ExplainNew) and serve
// per-access Explain calls against the live table. Both phases time only
// the AppendAccessBatch calls, so the ratio isolates what reader
// concurrency costs the writer — snapshot pins, epoch traffic, watermark
// publication — rather than generic CPU sharing between loop iterations.

struct ConcurrentIngestOptions {
  bool smoke = false;
  size_t num_batches = 0;  // 0 = default (64, smoke 16)
  int seed_days = 7;
  size_t audit_threads = 2;  // shards per concurrent ExplainNew
};

struct ConcurrentIngestResult {
  size_t streamed_rows = 0;
  size_t num_batches = 0;
  size_t concurrent_audits = 0;   // ExplainNew calls overlapping the appends
  size_t point_explains = 0;      // Explain calls overlapping the appends
  double append_only_seconds = 0.0;
  double concurrent_append_seconds = 0.0;
  /// Self-check: after quiescing, the concurrently-audited explained set
  /// must equal a fresh full ExplainAll over the final log.
  bool matches_full_explain_all = false;

  double AppendOnlyRowsPerSecond() const {
    return append_only_seconds > 0.0
               ? static_cast<double>(streamed_rows) / append_only_seconds
               : 0.0;
  }
  double ConcurrentRowsPerSecond() const {
    return concurrent_append_seconds > 0.0
               ? static_cast<double>(streamed_rows) / concurrent_append_seconds
               : 0.0;
  }
  /// The headline metric, gated with an absolute floor by compare_bench.py:
  /// writer throughput with concurrent readers relative to append-only.
  /// Near 1.0 when readers never block the writer; a regression to
  /// stop-the-world reads drags it toward the audit duty cycle. Saturates
  /// high if either phase is too fast for the clock to resolve.
  double ConcurrentAppendRelativeThroughput() const {
    if (append_only_seconds <= 0.0 || concurrent_append_seconds <= 0.0) {
      return 1e6;
    }
    return append_only_seconds / concurrent_append_seconds;
  }
};

inline ConcurrentIngestResult RunConcurrentIngestBench(
    const ConcurrentIngestOptions& options) {
  using Clock = std::chrono::steady_clock;
  auto unwrap_status = [](const Status& s) {
    EBA_CHECK_MSG(s.ok(), s.ToString());
  };

  ConcurrentIngestResult result;
  result.num_batches =
      options.num_batches > 0 ? options.num_batches : (options.smoke ? 16 : 64);

  // Both phases get an identical fresh hospital (the generator is seeded),
  // so the batch sequences are byte-identical and the timings comparable.
  struct Fixture {
    CareWebData data;
    std::vector<Row> backlog;
    std::unique_ptr<StreamingAuditor> auditor;
    std::vector<int64_t> seed_lids;  // exist for the whole run
  };
  auto make_fixture = [&options, &unwrap_status] {
    Fixture f;
    CareWebConfig config = CareWebConfig::Small();
    config.num_days = 14;
    auto generated = GenerateCareWeb(config);
    EBA_CHECK_MSG(generated.ok(), generated.status().ToString());
    f.data = std::move(generated).value();
    const Table* source_log = f.data.db.GetTable("Log").value();
    auto source_view = AccessLog::Wrap(source_log);
    EBA_CHECK_MSG(source_view.ok(), source_view.status().ToString());
    auto slice = AddLogSlice(&f.data.db, "Log", "LogStream", 1,
                             options.seed_days, /*first_only=*/false);
    EBA_CHECK_MSG(slice.ok(), slice.status().ToString());
    std::unordered_set<size_t> seeded;
    for (size_t r : source_view->RowsInDayRange(1, options.seed_days)) {
      seeded.insert(r);
    }
    for (size_t r = 0; r < source_log->num_rows(); ++r) {
      if (!seeded.count(r)) f.backlog.push_back(source_log->GetRow(r));
    }
    auto created = StreamingAuditor::Create(&f.data.db, "LogStream");
    EBA_CHECK_MSG(created.ok(), created.status().ToString());
    f.auditor = std::make_unique<StreamingAuditor>(std::move(created).value());
    auto templates = TemplatesHandcraftedDirect(f.data.db, true);
    EBA_CHECK_MSG(templates.ok(), templates.status().ToString());
    for (const auto& tmpl : *templates) {
      unwrap_status(f.auditor->AddTemplate(tmpl));
    }
    const Table* stream = f.data.db.GetTable("LogStream").value();
    auto stream_view = AccessLog::Wrap(stream);
    EBA_CHECK_MSG(stream_view.ok(), stream_view.status().ToString());
    for (size_t r = 0; r < stream->num_rows(); ++r) {
      f.seed_lids.push_back(stream_view->Get(r).lid);
    }
    return f;
  };

  // --- Phase A: append-only baseline. -------------------------------------
  {
    Fixture a = make_fixture();
    result.streamed_rows = a.backlog.size();
    const size_t batch_size =
        (a.backlog.size() + result.num_batches - 1) / result.num_batches;
    for (size_t start = 0; start < a.backlog.size(); start += batch_size) {
      const size_t end = std::min(start + batch_size, a.backlog.size());
      const std::vector<Row> batch(a.backlog.begin() + start,
                                   a.backlog.begin() + end);
      const auto t0 = Clock::now();
      unwrap_status(a.auditor->AppendAccessBatch(batch));
      const auto t1 = Clock::now();
      result.append_only_seconds +=
          std::chrono::duration<double>(t1 - t0).count();
    }
  }

  // --- Phase B: the same appends under concurrent audits. ------------------
  {
    Fixture b = make_fixture();
    StreamingOptions stream_options;
    stream_options.num_threads = options.audit_threads;
    // Cold audit before the clock starts, so the readers replay warm plans
    // (the serving regime) instead of compiling during the measurement.
    auto first = b.auditor->ExplainNew(stream_options);
    EBA_CHECK_MSG(first.ok(), first.status().ToString());

    std::atomic<bool> done{false};
    std::atomic<size_t> audits{0};
    std::atomic<size_t> explains{0};
    std::thread auditing_reader([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto report = b.auditor->ExplainNew(stream_options);
        EBA_CHECK_MSG(report.ok(), report.status().ToString());
        EBA_CHECK(!report->full_reaudit);
        audits.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::thread point_reader([&] {
      size_t next = 0;
      while (!done.load(std::memory_order_acquire)) {
        const int64_t lid = b.seed_lids[next++ % b.seed_lids.size()];
        auto instances = b.auditor->engine().Explain(lid);
        EBA_CHECK_MSG(instances.ok(), instances.status().ToString());
        explains.fetch_add(1, std::memory_order_relaxed);
      }
    });

    // Start barrier: on a single-core box the whole append loop can finish
    // before the OS ever schedules a reader thread, which would time an
    // unloaded writer. Wait until both readers have completed at least one
    // iteration so the measured appends genuinely overlap snapshot readers.
    while (audits.load(std::memory_order_relaxed) == 0 ||
           explains.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }

    const size_t batch_size =
        (b.backlog.size() + result.num_batches - 1) / result.num_batches;
    for (size_t start = 0; start < b.backlog.size(); start += batch_size) {
      const size_t end = std::min(start + batch_size, b.backlog.size());
      const std::vector<Row> batch(b.backlog.begin() + start,
                                   b.backlog.begin() + end);
      const auto t0 = Clock::now();
      unwrap_status(b.auditor->AppendAccessBatch(batch));
      const auto t1 = Clock::now();
      result.concurrent_append_seconds +=
          std::chrono::duration<double>(t1 - t0).count();
    }
    done.store(true, std::memory_order_release);
    auditing_reader.join();
    point_reader.join();
    result.concurrent_audits = audits.load();
    result.point_explains = explains.load();

    // Quiesce and self-check: the concurrently-accumulated explained set
    // must equal a fresh full audit of the final log.
    auto last = b.auditor->ExplainNew(stream_options);
    EBA_CHECK_MSG(last.ok(), last.status().ToString());
    auto full = b.auditor->engine().ExplainAll();
    EBA_CHECK_MSG(full.ok(), full.status().ToString());
    std::unordered_set<int64_t> full_set(full->explained_lids.begin(),
                                         full->explained_lids.end());
    result.matches_full_explain_all = b.auditor->ExplainedSetEquals(full_set);
  }
  return result;
}

/// Emits the concurrent-ingest result as a "concurrent_ingest" member
/// (with trailing comma) for embedding inside the "streaming" JSON object.
inline void WriteConcurrentIngestJson(std::FILE* f,
                                      const ConcurrentIngestResult& r,
                                      const char* pad) {
  std::fprintf(f, "%s\"concurrent_ingest\": {\n", pad);
  std::fprintf(f, "%s  \"streamed_rows\": %zu,\n", pad, r.streamed_rows);
  std::fprintf(f, "%s  \"num_batches\": %zu,\n", pad, r.num_batches);
  std::fprintf(f, "%s  \"concurrent_audits\": %zu,\n", pad,
               r.concurrent_audits);
  std::fprintf(f, "%s  \"point_explains\": %zu,\n", pad, r.point_explains);
  std::fprintf(f, "%s  \"append_only_rows_per_second\": %.0f,\n", pad,
               r.AppendOnlyRowsPerSecond());
  std::fprintf(f, "%s  \"concurrent_rows_per_second\": %.0f,\n", pad,
               r.ConcurrentRowsPerSecond());
  std::fprintf(f, "%s  \"concurrent_append_relative_throughput\": %.3f,\n",
               pad, r.ConcurrentAppendRelativeThroughput());
  std::fprintf(f, "%s  \"matches_full_explain_all\": %s\n", pad,
               r.matches_full_explain_all ? "true" : "false");
  std::fprintf(f, "%s},\n", pad);
}

// ---------------------------------------------------------------------------
// Durability phase: WAL append overhead (A/B vs plain appends) and
// time-to-recover vs a from-scratch full re-audit after a simulated crash.

struct DurabilityBenchOptions {
  bool smoke = false;
  /// Store directory; empty = "<system temp>/eba_bench_durability".
  std::string dir;
  size_t num_batches = 0;  // 0 = default (24, smoke 8)
  int seed_days = 7;
  /// Log span; 0 = default (42 days, smoke 14). The full-mode log is kept
  /// large enough that the recovery-vs-reaudit ratio measures the O(log)
  /// re-audit against the O(checkpoint + tail) recovery, not two constants.
  int num_days = 0;
};

struct DurabilityBenchResult {
  size_t streamed_rows = 0;
  size_t wal_tail_rows = 0;  // rows committed to the WAL after the checkpoint
  double plain_append_seconds = 0.0;
  double wal_append_seconds = 0.0;
  double plain_audit_seconds = 0.0;  // per-batch ExplainNew, no WAL
  double wal_audit_seconds = 0.0;    // per-batch ExplainNew, WAL enabled

  double recover_seconds = 0.0;         // RecoverFrom wall time
  double recover_db_load_seconds = 0.0; // portion reloading column data
  double checkpoint_load_seconds = 0.0; // manifest + audit state + columns
  double wal_replay_seconds = 0.0;      // WAL suffix decode + apply
  double converge_seconds = 0.0;        // the one converging ExplainNew
  double full_reaudit_seconds = 0.0;    // audit-state-lost baseline
  size_t wal_records_replayed = 0;
  size_t wal_rows_replayed = 0;
  uint64_t checkpoint_seq = 0;
  /// Differential acceptance: the recovered auditor's explained set equals
  /// a fresh full ExplainAll over the recovered log.
  bool recovered_matches_full_explain_all = false;

  double PlainAppendsPerSecond() const {
    return plain_append_seconds > 0.0
               ? static_cast<double>(streamed_rows) / plain_append_seconds
               : 0.0;
  }
  double WalAppendsPerSecond() const {
    return wal_append_seconds > 0.0
               ? static_cast<double>(streamed_rows) / wal_append_seconds
               : 0.0;
  }
  /// Raw-append tripwire: WAL appends/s relative to plain appends/s. The
  /// in-memory columnar append runs at ~90 ns/row, and the WAL's floor —
  /// encode + CRC + one buffered write() per batch — is of the same order,
  /// so this ratio sits near 0.5 by construction; its absolute floor exists
  /// to catch structural regressions (an accidental fsync per row, an O(n^2)
  /// re-encode), not to bound overhead at the operating point.
  double WalAppendRelativeThroughput() const {
    const double plain = PlainAppendsPerSecond();
    return plain > 0.0 ? WalAppendsPerSecond() / plain : 0.0;
  }
  /// The gated overhead ceiling at the auditor's operating point: the
  /// serving loop (append a batch, audit it with ExplainNew) with the WAL
  /// enabled vs without. >= 0.75 means write-ahead durability costs at most
  /// 25% of the end-to-end ingest+audit throughput a deployment sees.
  double ServingRelativeThroughput() const {
    const double plain = plain_append_seconds + plain_audit_seconds;
    const double wal = wal_append_seconds + wal_audit_seconds;
    return wal > 0.0 ? plain / wal : 0.0;
  }
  /// Audit-state recovery cost: checkpoint+WAL replay plus the converging
  /// audit, minus the raw column reload that ANY restart pays.
  double AuditStateRecoveryMs() const {
    const double s =
        recover_seconds - recover_db_load_seconds + converge_seconds;
    return 1e3 * (s > 0.0 ? s : 0.0);
  }
  double FullReauditAfterRestartMs() const {
    return 1e3 * full_reaudit_seconds;
  }
  /// The gated recovery metric: recovering the audit state from the
  /// checkpoint + WAL vs re-deriving it with a from-row-0 audit. A recovery
  /// too fast for the clock to resolve saturates high — it must not read as
  /// a regression against the gate's absolute floor.
  double RecoverySpeedupVsFullReaudit() const {
    const double recovery_ms = AuditStateRecoveryMs();
    if (recovery_ms > 0.0) return FullReauditAfterRestartMs() / recovery_ms;
    return FullReauditAfterRestartMs() > 0.0 ? 1e6 : 0.0;
  }
};

inline DurabilityBenchResult RunDurabilityBench(
    const DurabilityBenchOptions& options) {
  using Clock = std::chrono::steady_clock;
  auto unwrap_status = [](const Status& s) {
    EBA_CHECK_MSG(s.ok(), s.ToString());
  };
  DurabilityBenchResult result;
  const size_t num_batches =
      options.num_batches > 0 ? options.num_batches : (options.smoke ? 8 : 24);
  const std::string dir =
      !options.dir.empty()
          ? options.dir
          : (std::filesystem::temp_directory_path() / "eba_bench_durability")
                .string();

  CareWebConfig config = CareWebConfig::Small();
  config.num_days =
      options.num_days > 0 ? options.num_days : (options.smoke ? 14 : 42);
  auto generated = GenerateCareWeb(config);
  EBA_CHECK_MSG(generated.ok(), generated.status().ToString());
  CareWebData data = std::move(generated).value();

  const Table* source_log = data.db.GetTable("Log").value();
  auto source_view = AccessLog::Wrap(source_log);
  EBA_CHECK_MSG(source_view.ok(), source_view.status().ToString());
  unwrap_status(AddLogSlice(&data.db, "Log", "LogStream", 1, options.seed_days,
                            /*first_only=*/false)
                    .status());
  std::unordered_set<size_t> seeded;
  for (size_t r : source_view->RowsInDayRange(1, options.seed_days)) {
    seeded.insert(r);
  }
  std::vector<Row> backlog;
  backlog.reserve(source_log->num_rows() - seeded.size());
  for (size_t r = 0; r < source_log->num_rows(); ++r) {
    if (!seeded.count(r)) backlog.push_back(source_log->GetRow(r));
  }
  result.streamed_rows = backlog.size();
  auto templates = TemplatesHandcraftedDirect(data.db, true);
  EBA_CHECK_MSG(templates.ok(), templates.status().ToString());
  const size_t batch_size = (backlog.size() + num_batches - 1) / num_batches;

  // The serving loop a deployment runs: append a batch, audit it. Append
  // and audit time are accumulated separately so the raw-append tripwire
  // and the operating-point overhead are both measurable from one pass.
  auto serve_batches = [&](StreamingAuditor* auditor, double* append_seconds,
                           double* audit_seconds) {
    for (size_t start = 0; start < backlog.size(); start += batch_size) {
      const size_t end = std::min(start + batch_size, backlog.size());
      const std::vector<Row> batch(backlog.begin() + start,
                                   backlog.begin() + end);
      const auto t0 = Clock::now();
      unwrap_status(auditor->AppendAccessBatch(batch));
      const auto t1 = Clock::now();
      auto report = auditor->ExplainNew();
      EBA_CHECK_MSG(report.ok(), report.status().ToString());
      const auto t2 = Clock::now();
      *append_seconds += std::chrono::duration<double>(t1 - t0).count();
      *audit_seconds += std::chrono::duration<double>(t2 - t1).count();
    }
  };

  // Phase A (no WAL) and phase B (WAL-committed before apply) run the
  // identical serving loop on fresh clones, interleaved A B A B with the
  // fastest repetition kept per phase: the first pass through either phase
  // pays one-time process costs (allocator growth, first-touch pages) that
  // would otherwise land entirely on whichever phase ran first and swamp
  // the ~100 ns/row WAL delta the ratio exists to measure. kNone sync
  // isolates the structural overhead (encode + CRC + one write()) from
  // fsync latency, which is policy, not subsystem cost.
  DurabilityOptions dopts;
  dopts.dir = dir;
  dopts.sync = WalSync::kNone;
  dopts.checkpoint_after_wal_bytes = 0;  // manual checkpoints only
  constexpr int kReps = 3;
  double plain_serve_best = std::numeric_limits<double>::infinity();
  double wal_serve_best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    {
      Database plain_db = data.db.Clone();
      auto created = StreamingAuditor::Create(&plain_db, "LogStream");
      EBA_CHECK_MSG(created.ok(), created.status().ToString());
      StreamingAuditor auditor = std::move(created).value();
      for (const auto& tmpl : *templates) {
        unwrap_status(auditor.AddTemplate(tmpl));
      }
      double append_s = 0.0;
      double audit_s = 0.0;
      serve_batches(&auditor, &append_s, &audit_s);
      if (append_s + audit_s < plain_serve_best) {
        plain_serve_best = append_s + audit_s;
        result.plain_append_seconds = append_s;
        result.plain_audit_seconds = audit_s;
      }
    }
    {
      // Every repetition rebuilds the store from scratch; the final one
      // leaves the checkpoint + WAL tail on disk for the recovery phase.
      unwrap_status(RealEnv()->RemoveAll(dir));
      Database wal_db = data.db.Clone();
      auto created = StreamingAuditor::Create(&wal_db, "LogStream");
      EBA_CHECK_MSG(created.ok(), created.status().ToString());
      StreamingAuditor auditor = std::move(created).value();
      for (const auto& tmpl : *templates) {
        unwrap_status(auditor.AddTemplate(tmpl));
      }
      unwrap_status(auditor.EnableDurability(dopts));
      double append_s = 0.0;
      double audit_s = 0.0;
      serve_batches(&auditor, &append_s, &audit_s);
      if (append_s + audit_s < wal_serve_best) {
        wal_serve_best = append_s + audit_s;
        result.wal_append_seconds = append_s;
        result.wal_audit_seconds = audit_s;
      }

      // Checkpoint the audited state, then leave a WAL tail past the
      // checkpoint so recovery exercises both the image load and the replay.
      unwrap_status(auditor.Checkpoint());
      std::vector<Row> tail;
      for (size_t r = 0; r + 1 < backlog.size() && tail.size() < 64; r += 2) {
        tail.push_back(backlog[r]);  // duplicate lids are fine: it is drift
      }
      unwrap_status(auditor.AppendAccessBatch(tail));
      result.wal_tail_rows = tail.size();
    }  // crash: the auditor and its database go away
  }

  // Restart + recovery, timed. The converging audit covers the WAL tail.
  Database recovered_db;
  RecoveryStats stats;
  const auto r0 = Clock::now();
  auto recovered_or =
      StreamingAuditor::RecoverFrom(&recovered_db, "LogStream", dopts, &stats);
  EBA_CHECK_MSG(recovered_or.ok(), recovered_or.status().ToString());
  const auto r1 = Clock::now();
  StreamingAuditor recovered = std::move(recovered_or).value();
  for (const auto& tmpl : *templates) {
    unwrap_status(recovered.AddTemplate(tmpl));
  }
  const auto c0 = Clock::now();
  auto converge = recovered.ExplainNew();
  EBA_CHECK_MSG(converge.ok(), converge.status().ToString());
  const auto c1 = Clock::now();
  result.recover_seconds = std::chrono::duration<double>(r1 - r0).count();
  result.recover_db_load_seconds = stats.db_load_seconds;
  result.checkpoint_load_seconds = stats.checkpoint_load_seconds;
  result.wal_replay_seconds = stats.wal_replay_seconds;
  result.converge_seconds = std::chrono::duration<double>(c1 - c0).count();
  result.wal_records_replayed = stats.wal_records_replayed;
  result.wal_rows_replayed = stats.wal_rows_replayed;
  result.checkpoint_seq = stats.checkpoint_seq;

  // Baseline: the same restart WITHOUT durable audit state — the explained
  // set and watermark are gone, so deriving them again is a from-row-0
  // audit of the whole log. Run on a fresh auditor over a fresh clone so it
  // pays the same cold costs (plan compilation, index builds) the converge
  // audit above paid; reusing `recovered` would hand the baseline a warm
  // plan cache and warm indexes no real restart has.
  Database cold_db = recovered_db.Clone();
  {
    auto fresh_or = StreamingAuditor::Create(&cold_db, "LogStream");
    EBA_CHECK_MSG(fresh_or.ok(), fresh_or.status().ToString());
    StreamingAuditor fresh = std::move(fresh_or).value();
    for (const auto& tmpl : *templates) {
      unwrap_status(fresh.AddTemplate(tmpl));
    }
    const auto f0 = Clock::now();
    auto reaudit = fresh.ExplainNew();
    EBA_CHECK_MSG(reaudit.ok(), reaudit.status().ToString());
    const auto f1 = Clock::now();
    result.full_reaudit_seconds =
        std::chrono::duration<double>(f1 - f0).count();
  }

  // Differential acceptance: recovered state == fresh ExplainAll on a clone.
  {
    Database clone = recovered_db.Clone();
    auto oracle = ExplanationEngine::Create(&clone, "LogStream");
    EBA_CHECK_MSG(oracle.ok(), oracle.status().ToString());
    for (const auto& tmpl : *templates) {
      unwrap_status(oracle->AddTemplate(tmpl));
    }
    auto full = oracle->ExplainAll();
    EBA_CHECK_MSG(full.ok(), full.status().ToString());
    std::unordered_set<int64_t> full_set(full->explained_lids.begin(),
                                         full->explained_lids.end());
    result.recovered_matches_full_explain_all =
        recovered.ExplainedSetEquals(full_set);
  }
  unwrap_status(RealEnv()->RemoveAll(dir));
  return result;
}

/// Emits the durability result as a JSON object body, indented with `pad`
/// spaces, e.g. under "streaming"."durability" in BENCH_executor.json.
inline void WriteDurabilityJson(std::FILE* f, const DurabilityBenchResult& r,
                                const char* pad) {
  std::fprintf(f, "%s\"streamed_rows\": %zu,\n", pad, r.streamed_rows);
  std::fprintf(f, "%s\"wal_tail_rows\": %zu,\n", pad, r.wal_tail_rows);
  std::fprintf(f, "%s\"plain_appends_per_second\": %.0f,\n", pad,
               r.PlainAppendsPerSecond());
  std::fprintf(f, "%s\"wal_appends_per_second\": %.0f,\n", pad,
               r.WalAppendsPerSecond());
  std::fprintf(f, "%s\"wal_append_relative_throughput\": %.3f,\n", pad,
               r.WalAppendRelativeThroughput());
  std::fprintf(f, "%s\"durable_serving_relative_throughput\": %.3f,\n", pad,
               r.ServingRelativeThroughput());
  std::fprintf(f, "%s\"recover_ms\": %.3f,\n", pad, 1e3 * r.recover_seconds);
  std::fprintf(f, "%s\"recover_db_load_ms\": %.3f,\n", pad,
               1e3 * r.recover_db_load_seconds);
  std::fprintf(f, "%s\"checkpoint_load_ms\": %.3f,\n", pad,
               1e3 * r.checkpoint_load_seconds);
  std::fprintf(f, "%s\"wal_replay_ms\": %.3f,\n", pad,
               1e3 * r.wal_replay_seconds);
  std::fprintf(f, "%s\"converge_audit_ms\": %.3f,\n", pad,
               1e3 * r.converge_seconds);
  std::fprintf(f, "%s\"audit_state_recovery_ms\": %.3f,\n", pad,
               r.AuditStateRecoveryMs());
  std::fprintf(f, "%s\"full_reaudit_after_restart_ms\": %.3f,\n", pad,
               r.FullReauditAfterRestartMs());
  std::fprintf(f, "%s\"recovery_speedup_vs_full_reaudit\": %.2f,\n", pad,
               r.RecoverySpeedupVsFullReaudit());
  std::fprintf(f, "%s\"wal_records_replayed\": %zu,\n", pad,
               r.wal_records_replayed);
  std::fprintf(f, "%s\"wal_rows_replayed\": %zu,\n", pad,
               r.wal_rows_replayed);
  std::fprintf(f, "%s\"checkpoint_seq\": %llu,\n", pad,
               static_cast<unsigned long long>(r.checkpoint_seq));
  std::fprintf(f, "%s\"recovered_matches_full_explain_all\": %s\n", pad,
               r.recovered_matches_full_explain_all ? "true" : "false");
}

/// Emits the streaming result as a JSON object body (no surrounding braces'
/// key), indented with `pad` spaces, e.g. under "streaming" in
/// BENCH_executor.json.
inline void WriteStreamingJson(std::FILE* f, const StreamingBenchResult& r,
                               const char* pad) {
  std::fprintf(f, "%s\"initial_rows\": %zu,\n", pad, r.initial_rows);
  std::fprintf(f, "%s\"streamed_rows\": %zu,\n", pad, r.streamed_rows);
  std::fprintf(f, "%s\"num_batches\": %zu,\n", pad, r.num_batches);
  std::fprintf(f, "%s\"templates\": %zu,\n", pad, r.num_templates);
  std::fprintf(f, "%s\"appends_per_second\": %.0f,\n", pad,
               r.AppendsPerSecond());
  std::fprintf(f, "%s\"explain_new_ms_per_batch\": %.3f,\n", pad,
               r.ExplainNewMsPerBatch());
  std::fprintf(f, "%s\"per_access_explain_ms\": %.3f,\n", pad,
               r.PerAccessExplainMs());
  std::fprintf(f, "%s\"plan_cache\": {\"hits\": %llu, \"misses\": %llu, "
               "\"rebinds\": %llu, \"invalidations\": %llu},\n",
               pad, static_cast<unsigned long long>(r.plan_hits),
               static_cast<unsigned long long>(r.plan_misses),
               static_cast<unsigned long long>(r.plan_rebinds),
               static_cast<unsigned long long>(r.plan_invalidations));
  std::fprintf(f, "%s\"plan_cache_hit_rate\": %.3f,\n", pad,
               r.PlanCacheHitRate());
  std::fprintf(f, "%s\"foreign_append\": {\n", pad);
  std::fprintf(f, "%s  \"batches\": %zu,\n", pad, r.foreign_batches);
  std::fprintf(f, "%s  \"rows\": %zu,\n", pad, r.foreign_rows);
  std::fprintf(f, "%s  \"delta_ms_per_batch\": %.3f,\n", pad,
               r.ForeignDeltaMsPerBatch());
  std::fprintf(f, "%s  \"full_reaudit_ms\": %.3f,\n", pad, r.FullReauditMs());
  std::fprintf(f, "%s  \"full_reaudit_extra_rows\": %zu,\n", pad,
               r.reaudit_rows);
  std::fprintf(f, "%s  \"delta_explained_lids\": %zu,\n", pad,
               r.delta_explained_total);
  std::fprintf(f, "%s  \"delta_queries\": %zu,\n", pad,
               r.delta_queries_total);
  std::fprintf(f, "%s  \"speedup_delta_vs_full_reaudit\": %.2f\n", pad,
               r.DeltaSpeedupVsFullReaudit());
  std::fprintf(f, "%s},\n", pad);
  std::fprintf(f, "%s\"final_coverage\": %.3f,\n", pad, r.final_coverage);
  std::fprintf(f, "%s\"matches_full_explain_all\": %s\n", pad,
               r.matches_full_explain_all ? "true" : "false");
}

}  // namespace eba

#endif  // EBA_BENCH_BENCH_STREAMING_UTIL_H_
