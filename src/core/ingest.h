// Streaming audit ingest: the serving-loop side of explanation-based
// auditing. The paper's hospital log grows continuously while compliance
// officers audit it; StreamingAuditor turns the batch reproducer into that
// loop by pairing an append path (AppendAccessBatch — watermark-only Table
// appends, so compiled plans re-bind instead of re-planning) with an
// incremental explanation pass (ExplainNew — explains only the accesses
// past the last audited watermark, maintaining one persistent explained
// flag per audited log row).
//
// Incremental correctness: explanations are monotone under appends —
// appending rows (to the log or to any other table) can only add witnesses,
// never remove one — so the explained flags only ever turn on, and every
// append is auditable as a delta. ExplainNew is the engine's range audit
// (ExplanationEngine::AuditRange), the log one more appended table. Drift
// since the last audit is classified per table
// (Database::Snapshot::DriftSince):
//   - log appends: every template runs restricted to the new rows
//     (Executor::LogRowsJoinedTo seeds variable 0 there, and any self-join
//     position of the log);
//   - appends to any other table: each template that references it runs
//     restricted to the appended rows, and the previously-unexplained rows
//     the delta newly explains are flagged and reported
//     (StreamingReport::delta_explained_lids). Cost scales with the delta,
//     not the log;
//   - catalog changes (a table added, dropped or replaced, which can
//     remove evidence): the monotonicity argument is gone — full re-audit
//     from row 0 (StreamingReport::full_reaudit), exactly ExplainAll's
//     queries.
// Every log row is one access, explained by its own witnesses: a lid that
// repeats an audited one (its uniqueness is not enforced) is another
// access, classified on its own.

#ifndef EBA_CORE_INGEST_H_
#define EBA_CORE_INGEST_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "storage/checkpoint.h"
#include "storage/database.h"
#include "storage/io.h"
#include "storage/wal.h"

namespace eba {

/// Tuning knobs for ExplainNew: the range audit's options. Under a pure
/// append workload every ExplainNew after the first replays re-bound plans
/// from the engine's cache (hit + rebind), keeping the serving loop cheap;
/// the engine's PlanCache::stats() count them.
using StreamingOptions = ExplainAllOptions;

/// Configuration of the durable-state layer (EnableDurability/RecoverFrom).
struct DurabilityOptions {
  /// Store directory: CURRENT, ckpt-<seq>/ checkpoints, the chunks/ they
  /// share, wal-<seq>.log logs (storage/checkpoint.h).
  std::string dir;
  /// fsync policy for WAL commits. kNone survives process kill (the fault
  /// model the tests exercise), kBatch/kAlways additionally survive power
  /// loss at increasing cost.
  WalSync sync = WalSync::kBatch;
  /// ExplainNew checkpoints automatically once the live WAL exceeds this
  /// many bytes; 0 = checkpoint only on explicit Checkpoint() calls.
  uint64_t checkpoint_after_wal_bytes = uint64_t{1} << 20;
  /// Inert: every checkpoint is complete and writes only the chunks that
  /// changed. Declared only because perfbench/src/ingest_durable.cc still
  /// assigns it.
  uint32_t full_checkpoint_interval = 4;
  /// I/O seam; nullptr = the real filesystem. Tests inject
  /// FaultInjectingEnv here.
  Env* env = nullptr;
};

/// What RecoverFrom did, for observability and the recovery benchmarks.
struct RecoveryStats {
  /// False when no checkpoint existed (fresh start, nothing to recover).
  bool recovered = false;
  uint64_t checkpoint_seq = 0;
  size_t wal_files_replayed = 0;
  size_t wal_records_replayed = 0;
  size_t wal_rows_replayed = 0;
  /// Torn/corrupt tail bytes truncated from the final WAL file.
  uint64_t wal_bytes_truncated = 0;
  /// Total checkpoint load time, and the portion spent loading column data
  /// (paid by any restart regardless of audit durability).
  double checkpoint_load_seconds = 0.0;
  double db_load_seconds = 0.0;
  double wal_replay_seconds = 0.0;
};

/// Owns the streaming serving loop over one log table: appends batches,
/// audits incrementally, and accumulates one explained flag per audited log
/// row. The database must outlive the auditor. ExplainNew's report is a
/// StreamingReport (core/engine.h).
///
/// Thread safety — single writer, concurrent audits. Two internal mutexes
/// split the old coarse auditor lock (discipline compiler-checked via
/// EBA_GUARDED_BY):
///
///   * `writer_mu_` serializes the append path (WAL commit + table apply)
///     and guards the durability layer. AppendAccessBatch/AppendRows take
///     only this lock.
///   * `audit_mu_` guards the audit accumulator (explained flags, whose
///     count is the audited watermark, drift baseline, worker pool).
///     ExplainNew and the state accessors take only this lock.
///
/// ExplainNew pins one Database::Snapshot at entry and evaluates the whole
/// audit against that read view, so appends proceed concurrently: rows that
/// land after the pin are simply past the snapshot's watermarks and
/// re-surface as drift on the next audit. Checkpoints take both locks
/// (audit state AND a stable WAL/image cut). Lock order is always
/// audit_mu_ -> writer_mu_; nothing acquires them in the other order.
/// Catalog changes (create/drop/add table) remain outside the contract —
/// they still require external serialization against every concurrent
/// append and audit.
class StreamingAuditor {
 public:
  /// `db` must contain `log_table` with the standard log schema.
  static StatusOr<StreamingAuditor> Create(Database* db,
                                           const std::string& log_table);

  /// Restores a crashed auditor from its durability directory: loads the
  /// newest published checkpoint into `*db` (replacing its contents),
  /// replays the WAL suffix (truncating a torn/corrupt tail of the final
  /// log file — mid-chain corruption is an error), and returns an auditor
  /// with the checkpointed explained flags (one per audited row), audit
  /// watermarks, and audit snapshot, durability already enabled on a fresh
  /// WAL. A checkpoint that audited more log rows than the recovered log
  /// holds is refused. When the directory holds no checkpoint this is a
  /// fresh start: `*db` is left as-is and EnableDurability runs on it.
  /// Callers re-register their templates and run one ExplainNew to
  /// converge (it re-audits everything past the last checkpointed audit;
  /// monotonicity makes the result identical to an uninterrupted run).
  static StatusOr<StreamingAuditor> RecoverFrom(Database* db,
                                                const std::string& log_table,
                                                const DurabilityOptions& options,
                                                RecoveryStats* stats = nullptr);

  /// Registers a template with the underlying engine (variable 0 is rebound
  /// to this auditor's log table automatically).
  Status AddTemplate(const ExplanationTemplate& tmpl);

  /// The underlying engine (per-access Explain, full ExplainAll, the
  /// persistent plan cache).
  ExplanationEngine& engine() { return engine_; }
  const ExplanationEngine& engine() const { return engine_; }

  /// Enables write-ahead logging + checkpointing: writes an initial
  /// checkpoint of every chunk of the database and the audit state into
  /// `options.dir`, then opens a WAL that every subsequent append commits
  /// to *before* applying. Fails if durability is already enabled.
  Status EnableDurability(const DurabilityOptions& options)
      EBA_EXCLUDES(*audit_mu_, *writer_mu_);

  /// True once EnableDurability/RecoverFrom succeeded.
  bool durable() const EBA_EXCLUDES(*writer_mu_) {
    MutexLock lock(*writer_mu_);
    return durable_ != nullptr;
  }

  /// Writes and publishes a checkpoint now (requires durability). Every
  /// checkpoint is complete; it writes only the chunks whose rows changed
  /// since the last one (all of them after a catalog change), plus the
  /// catalog and the explained flags. On success the WAL is rotated:
  /// recovery needs only the new checkpoint + new WAL. Takes both auditor
  /// locks: a checkpoint is the one operation that needs the audit state
  /// and the append stream cut at the same point.
  Status Checkpoint() EBA_EXCLUDES(*audit_mu_, *writer_mu_);

  /// Appends access rows to the log table. Without durability: row-atomic,
  /// not batch-atomic — on a validation error, rows before the offender are
  /// already appended. With durability: batch-atomic — the whole batch is
  /// validated, then committed to the WAL, then applied, so the log on disk
  /// never contains a row the database rejected. Appends advance the
  /// table's watermark only, so cached plans re-bind on the next audit
  /// instead of re-planning. Holds only the writer lock, so it runs
  /// concurrently with snapshot-pinned audits (ExplainNew) and audit-state
  /// accessors.
  Status AppendAccessBatch(const std::vector<Row>& rows)
      EBA_EXCLUDES(*writer_mu_);

  /// Appends rows to any table of the database. The log table delegates to
  /// AppendAccessBatch; for any other table the grown row range is absorbed
  /// by the next ExplainNew's reverse semi-join delta pass instead of
  /// forcing a full re-audit. Appending directly via Table::AppendRow is
  /// equivalent — the audit classifies drift from the watermark snapshot,
  /// not from this call — but routing through the auditor keeps the
  /// row-atomic validation and the ingestion counters.
  Status AppendRows(const std::string& table, const std::vector<Row>& rows)
      EBA_EXCLUDES(*writer_mu_);

  /// Explains what the appends since the last audit can change: one range
  /// audit (ExplanationEngine::AuditRange) that evaluates every template
  /// restricted to the new log rows and, for appends to non-log tables,
  /// restricted to the appended foreign rows (Executor::LogRowsJoinedTo —
  /// the reverse semi-join), flagging the rows it explains and advancing
  /// the audited watermark. Cost scales with the deltas, not the log.
  /// Falls back to a full re-audit only on a catalog change (see file
  /// comment).
  ///
  /// Pins one Database::Snapshot at entry and audits exactly the rows below
  /// its watermarks; appends landing during the audit are not lost — they
  /// are past the snapshot and re-surface as drift on the next call.
  StatusOr<StreamingReport> ExplainNew(const StreamingOptions& options = {})
      EBA_EXCLUDES(*audit_mu_, *writer_mu_);

  /// Log rows audited so far (the audited watermark).
  size_t audited_rows() const EBA_EXCLUDES(*audit_mu_) {
    MutexLock lock(*audit_mu_);
    return explained_.size();
  }
  /// Lids of the log rows explained by at least one template across all
  /// audits (a snapshot copy, read from the log under the audit lock).
  /// O(audited rows) — serving loops that only need the size should use
  /// explained_count().
  std::unordered_set<int64_t> explained_lids() const EBA_EXCLUDES(*audit_mu_);
  /// Number of explained log rows, without copying their lids (the
  /// bench/report accessor). With unique lids it is explained_lids().size().
  size_t explained_count() const EBA_EXCLUDES(*audit_mu_) {
    MutexLock lock(*audit_mu_);
    return static_cast<size_t>(
        std::count(explained_.begin(), explained_.end(), uint8_t{1}));
  }
  /// True when explained_lids() equals `other` (differential-oracle
  /// checks); builds no set while the explained rows' lids ascend in row
  /// order.
  bool ExplainedSetEquals(const std::unordered_set<int64_t>& other) const
      EBA_EXCLUDES(*audit_mu_);

  // Monotonic ingestion counters; relaxed atomics so bench/report loops can
  // read them while an append or audit holds the auditor lock.
  uint64_t rows_appended() const { return rows_appended_.Load(); }
  uint64_t batches_appended() const { return batches_appended_.Load(); }
  /// Rows appended to non-log tables through AppendRows.
  uint64_t foreign_rows_appended() const {
    return foreign_rows_appended_.Load();
  }

  /// Discards the audit state: the next ExplainNew audits from row 0.
  void ResetAudit() EBA_EXCLUDES(*audit_mu_);

 private:
  /// Durable-state bundle, present only after EnableDurability/RecoverFrom.
  struct DurableState {
    DurabilityOptions options;
    Env* env = nullptr;
    std::unique_ptr<CheckpointStore> store;
    std::unique_ptr<WalWriter> wal;
    uint64_t wal_seq = 0;
    /// Snapshot at the last checkpoint (unpinned — drift baseline only):
    /// after a catalog change the next checkpoint shares no chunk file.
    Database::Snapshot last_ckpt_snapshot;
  };

  StreamingAuditor(Database* db, ExplanationEngine engine);

  Status AppendAccessBatchLocked(const std::vector<Row>& rows)
      EBA_REQUIRES(*writer_mu_);
  void ResetAuditLocked() EBA_REQUIRES(*audit_mu_);

  /// Shared append path: WAL-first when durable, plain otherwise.
  Status AppendTableLocked(const std::string& table_name, Table* table,
                           const std::vector<Row>& rows)
      EBA_REQUIRES(*writer_mu_);
  Status CheckpointLocked() EBA_REQUIRES(*audit_mu_, *writer_mu_);
  /// Installs checkpointed audit state + a fresh WAL on a just-created
  /// auditor (the recovery tail of RecoverFrom).
  Status AdoptRecoveredState(CheckpointContents ckpt, Env* env,
                             const DurabilityOptions& options,
                             uint64_t new_wal_seq)
      EBA_EXCLUDES(*audit_mu_, *writer_mu_);
  /// Calls fn(lid) for each explained row, in row order, reading the Lid
  /// column.
  template <typename Fn>
  void ForEachExplainedLidLocked(Fn&& fn) const EBA_REQUIRES(*audit_mu_);

  Database* db_;
  ExplanationEngine engine_;

  // The lock split (see class comment). Lock order: audit_mu_ before
  // writer_mu_. Boxed so the auditor stays movable; moved-from auditors
  // must not be used.
  mutable std::unique_ptr<Mutex> audit_mu_;
  mutable std::unique_ptr<Mutex> writer_mu_;

  /// One flag per audited log row, 1 when some template explains it; its
  /// size is the audited watermark.
  std::vector<uint8_t> explained_ EBA_GUARDED_BY(*audit_mu_);
  AtomicCounter rows_appended_;
  AtomicCounter batches_appended_;
  AtomicCounter foreign_rows_appended_;

  // Lazily created worker pool reused across ExplainNew calls (sized to the
  // last options.num_threads - 1), so the per-batch serving loop does not
  // pay thread create/join on every audit.
  std::unique_ptr<ThreadPool> pool_ EBA_GUARDED_BY(*audit_mu_);

  // Drift baseline: the (unpinned) snapshot the last audit ran against; the
  // next ExplainNew classifies what changed by pinning a fresh snapshot and
  // comparing (Snapshot::DriftSince).
  Database::Snapshot snapshot_ EBA_GUARDED_BY(*audit_mu_);

  // Durability layer (WAL + checkpoints); null until EnableDurability.
  // Writer-owned: every WAL commit happens on the append path.
  std::unique_ptr<DurableState> durable_ EBA_GUARDED_BY(*writer_mu_);
};

}  // namespace eba

#endif  // EBA_CORE_INGEST_H_
