#include "core/ingest.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "log/access_log.h"

namespace eba {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

StreamingAuditor::StreamingAuditor(Database* db, ExplanationEngine engine)
    : db_(db),
      engine_(std::move(engine)),
      audit_mu_(std::make_unique<Mutex>()),
      writer_mu_(std::make_unique<Mutex>()),
      snapshot_(db->CreateSnapshot()) {
  // The stored baseline is for drift comparison only; holding its pin
  // would block tail reclamation between audits.
  snapshot_.ReleasePin();
}

StatusOr<StreamingAuditor> StreamingAuditor::Create(
    Database* db, const std::string& log_table) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  EBA_ASSIGN_OR_RETURN(const Table* table, db->GetTable(log_table));
  // Wrap validates the full standard log schema up front (Create of the
  // engine only checks Lid), so ExplainNew's scan cannot fail later.
  EBA_RETURN_IF_ERROR(AccessLog::Wrap(table).status());
  EBA_ASSIGN_OR_RETURN(ExplanationEngine engine,
                       ExplanationEngine::Create(db, log_table));
  return StreamingAuditor(db, std::move(engine));
}

Status StreamingAuditor::AddTemplate(const ExplanationTemplate& tmpl) {
  return engine_.AddTemplate(tmpl);
}

namespace {

/// Row-atomic append shared by the log and foreign paths: on a validation
/// error, rows before the offender are already appended.
Status AppendToTable(Table* table, const std::vector<Row>& rows) {
  table->Reserve(table->num_rows() + rows.size());
  for (const Row& row : rows) {
    EBA_RETURN_IF_ERROR(table->AppendRow(row));
  }
  return Status::OK();
}

}  // namespace

Status StreamingAuditor::AppendTableLocked(const std::string& table_name,
                                           Table* table,
                                           const std::vector<Row>& rows) {
  if (durable_ == nullptr) return AppendToTable(table, rows);
  // Durable appends are batch-atomic: validate everything up front so the
  // WAL never commits a row the apply step could reject, then write-ahead,
  // then apply (which cannot fail post-validation).
  for (const Row& row : rows) {
    EBA_RETURN_IF_ERROR(table->ValidateRow(row));
  }
  EBA_RETURN_IF_ERROR(durable_->wal->AppendRecord(
      kWalAppendBatch, EncodeAppendPayload(table_name, rows)));
  EBA_RETURN_IF_ERROR(durable_->wal->Commit());
  table->Reserve(table->num_rows() + rows.size());
  for (const Row& row : rows) {
    table->AppendValidatedRow(row);  // pre-validated above
  }
  return Status::OK();
}

Status StreamingAuditor::AppendAccessBatch(const std::vector<Row>& rows) {
  MutexLock lock(*writer_mu_);
  return AppendAccessBatchLocked(rows);
}

Status StreamingAuditor::AppendAccessBatchLocked(const std::vector<Row>& rows) {
  EBA_ASSIGN_OR_RETURN(Table* table, db_->GetTable(engine_.log_table()));
  EBA_RETURN_IF_ERROR(AppendTableLocked(engine_.log_table(), table, rows));
  rows_appended_.Add(rows.size());
  batches_appended_.Increment();
  return Status::OK();
}

Status StreamingAuditor::AppendRows(const std::string& table_name,
                                    const std::vector<Row>& rows) {
  MutexLock lock(*writer_mu_);
  if (table_name == engine_.log_table()) return AppendAccessBatchLocked(rows);
  EBA_ASSIGN_OR_RETURN(Table* table, db_->GetTable(table_name));
  EBA_RETURN_IF_ERROR(AppendTableLocked(table_name, table, rows));
  foreign_rows_appended_.Add(rows.size());
  return Status::OK();
}

void StreamingAuditor::ResetAudit() {
  MutexLock lock(*audit_mu_);
  ResetAuditLocked();
}

void StreamingAuditor::ResetAuditLocked() { explained_.clear(); }

template <typename Fn>
void StreamingAuditor::ForEachExplainedLidLocked(Fn&& fn) const {
  StatusOr<const Table*> table =
      static_cast<const Database*>(db_)->GetTable(engine_.log_table());
  if (!table.ok()) return;
  const Table* log = *table;
  const Column& lid_col =
      log->column(static_cast<size_t>(log->schema().ColumnIndex("Lid")));
  // The pin keeps the column's chunk directories alive while the flagged
  // rows, all below the last audit's watermark, are read.
  const Database::Snapshot pin = db_->CreateSnapshot();
  const std::vector<uint8_t>& flags = explained_;
  const size_t rows = std::min(flags.size(), pin.BoundOf(log));
  lid_col.ForEachInt64Span(
      0, rows, [&](size_t first_row, const int64_t* data, size_t count) {
        for (size_t j = 0; j < count; ++j) {
          if (flags[first_row + j] != 0) fn(data[j]);
        }
      });
}

std::unordered_set<int64_t> StreamingAuditor::explained_lids() const {
  MutexLock lock(*audit_mu_);
  std::unordered_set<int64_t> lids;
  ForEachExplainedLidLocked([&lids](int64_t lid) { lids.insert(lid); });
  return lids;
}

bool StreamingAuditor::ExplainedSetEquals(
    const std::unordered_set<int64_t>& other) const {
  MutexLock lock(*audit_mu_);
  // Every explained row's lid must be in `other`. Lids that ascend in row
  // order are distinct, so then their count settles equality; otherwise a
  // lid may lie on several rows, and only the set can tell.
  size_t rows = 0;
  bool contained = true;
  bool ascending = true;
  int64_t last = 0;
  ForEachExplainedLidLocked([&](int64_t lid) {
    contained = contained && other.count(lid) > 0;
    ascending = ascending && (rows == 0 || lid > last);
    last = lid;
    ++rows;
  });
  if (!contained) return false;
  if (ascending) return rows == other.size();
  std::unordered_set<int64_t> lids;
  ForEachExplainedLidLocked([&lids](int64_t lid) { lids.insert(lid); });
  return lids == other;
}

Status StreamingAuditor::EnableDurability(const DurabilityOptions& options) {
  MutexLock audit_lock(*audit_mu_);
  MutexLock writer_lock(*writer_mu_);
  if (durable_ != nullptr) {
    return Status::FailedPrecondition("durability already enabled");
  }
  auto d = std::make_unique<DurableState>();
  d->options = options;
  d->env = options.env != nullptr ? options.env : RealEnv();
  d->store = std::make_unique<CheckpointStore>(d->env, options.dir);
  EBA_RETURN_IF_ERROR(d->store->Init());
  durable_ = std::move(d);
  // Seed the store with every chunk of the current database + audit state;
  // this also opens the first WAL.
  Status s = CheckpointLocked();
  if (!s.ok()) durable_.reset();  // don't leave a half-enabled layer behind
  return s;
}

Status StreamingAuditor::Checkpoint() {
  MutexLock audit_lock(*audit_mu_);
  MutexLock writer_lock(*writer_mu_);
  return CheckpointLocked();
}

Status StreamingAuditor::CheckpointLocked() {
  if (durable_ == nullptr) {
    return Status::FailedPrecondition("durability not enabled");
  }
  DurableState& d = *durable_;
  // The tables continue the published checkpoint's unless this is the
  // first checkpoint (EnableDurability) or the catalog changed since: a
  // same-name replacement table's rows are not the published rows plus a
  // suffix, and shared chunk files would resurrect the dropped ones.
  const bool tables_continue =
      d.wal != nullptr &&
      !db_->CreateSnapshot().DriftSince(d.last_ckpt_snapshot).catalog_changed;

  AuditState audit;
  audit.explained = explained_;
  // Watermarks as of the last completed audit (snapshot_), NOT current row
  // counts: rows appended since the last audit must re-surface as drift
  // after recovery or the delta pass would silently skip them.
  for (const auto& tv : snapshot_.tables()) {
    audit.audit_watermarks[tv.name] = tv.watermark;
  }

  // Floor the sequence at the live WAL's successor: after a recovery the
  // open WAL (seq = highest replayed + 1) can outrank CURRENT, and reusing
  // any sequence <= it would pair this checkpoint with an existing log file
  // whose stale records the next recovery would replay on top of the image.
  EBA_ASSIGN_OR_RETURN(
      const uint64_t seq,
      d.store->Prepare(*db_, audit, tables_continue,
                       /*min_seq=*/d.wal_seq + 1));
  // The paired WAL must exist before the checkpoint becomes CURRENT:
  // recovery replays wal-<seq> and may legitimately find it empty, but not
  // missing work that only lived in the previous WAL after GC.
  EBA_ASSIGN_OR_RETURN(
      std::unique_ptr<WalWriter> wal,
      WalWriter::Open(d.env, d.store->WalPath(seq), d.options.sync));
  EBA_RETURN_IF_ERROR(d.store->Publish(seq));
  if (d.wal != nullptr) EBA_RETURN_IF_ERROR(d.wal->Close());
  d.wal = std::move(wal);
  d.wal_seq = seq;
  d.last_ckpt_snapshot = db_->CreateSnapshot();
  d.last_ckpt_snapshot.ReleasePin();  // drift baseline only
  return Status::OK();
}

Status StreamingAuditor::AdoptRecoveredState(CheckpointContents ckpt,
                                             Env* env,
                                             const DurabilityOptions& options,
                                             uint64_t new_wal_seq) {
  MutexLock audit_lock(*audit_mu_);
  MutexLock writer_lock(*writer_mu_);
  explained_ = std::move(ckpt.audit.explained);
  // Current generation (the recovered tables are this auditor's reality
  // now) but the *checkpointed* audit watermarks, so appends that
  // happened after the last audit — checkpointed rows and replayed WAL rows
  // alike — classify as drift for the converging ExplainNew.
  Database::Snapshot snap = db_->CreateSnapshot();
  snap.ReleasePin();  // drift baseline only
  for (const auto& tv : snap.tables()) {
    const auto it = ckpt.audit.audit_watermarks.find(tv.name);
    snap.SetWatermark(
        tv.name,
        it != ckpt.audit.audit_watermarks.end() ? it->second : 0);
  }
  snapshot_ = std::move(snap);

  auto d = std::make_unique<DurableState>();
  d->options = options;
  d->env = env;
  d->store = std::make_unique<CheckpointStore>(env, options.dir);
  EBA_ASSIGN_OR_RETURN(
      d->wal, WalWriter::Open(env, d->store->WalPath(new_wal_seq),
                              options.sync));
  d->wal_seq = new_wal_seq;
  d->last_ckpt_snapshot = db_->CreateSnapshot();
  d->last_ckpt_snapshot.ReleasePin();
  durable_ = std::move(d);
  return Status::OK();
}

StatusOr<StreamingAuditor> StreamingAuditor::RecoverFrom(
    Database* db, const std::string& log_table,
    const DurabilityOptions& options, RecoveryStats* stats) {
  RecoveryStats local_stats;
  RecoveryStats& out = stats != nullptr ? *stats : local_stats;
  out = RecoveryStats{};
  Env* env = options.env != nullptr ? options.env : RealEnv();

  CheckpointStore store(env, options.dir);
  {
    StatusOr<uint64_t> current = store.CurrentSeq();
    if (!current.ok()) {
      if (!current.status().IsNotFound()) return current.status();
      // Nothing durable yet: a fresh start over the caller's database.
      EBA_ASSIGN_OR_RETURN(StreamingAuditor auditor, Create(db, log_table));
      EBA_RETURN_IF_ERROR(auditor.EnableDurability(options));
      return auditor;
    }
  }

  const auto ckpt_start = std::chrono::steady_clock::now();
  EBA_ASSIGN_OR_RETURN(CheckpointContents ckpt, store.LoadNewest());
  out.recovered = true;
  out.checkpoint_seq = ckpt.seq;
  out.checkpoint_load_seconds = SecondsSince(ckpt_start);
  out.db_load_seconds = ckpt.db_load_seconds;
  *db = std::move(ckpt.db);

  // Replay the WAL suffix (every log with seq >= the checkpoint's WALSEQ,
  // in sequence order). A torn/corrupt tail is legal only in the final log
  // — it is truncated away, never applied; damage mid-chain means a record
  // that was once durably committed is gone, which recovery must not paper
  // over.
  const auto replay_start = std::chrono::steady_clock::now();
  EBA_ASSIGN_OR_RETURN(std::vector<uint64_t> wals, store.ListWalSeqs());
  wals.erase(wals.begin(),
             std::lower_bound(wals.begin(), wals.end(), ckpt.wal_seq));

  // The suffix must be an unbroken chain starting at the checkpoint's
  // WALSEQ: wal-<WALSEQ> is created before its checkpoint becomes CURRENT
  // and GC never removes it, so a hole means a log whose records were once
  // durably committed is gone — recovery must fail, not paper over it.
  if (wals.empty() || wals[0] != ckpt.wal_seq) {
    return Status::Internal(
        "WAL chain broken: wal-" + std::to_string(ckpt.wal_seq) +
        ".log (the checkpoint's WALSEQ) is missing from " + options.dir);
  }
  for (size_t i = 1; i < wals.size(); ++i) {
    if (wals[i] != wals[0] + i) {
      return Status::Internal(
          "WAL chain broken: wal-" + std::to_string(wals[i - 1] + 1) +
          ".log is missing from " + options.dir + " (found wal-" +
          std::to_string(wals[i]) + ".log after wal-" +
          std::to_string(wals[i - 1]) + ".log)");
    }
  }

  // Seed from the checkpoint's WALSEQ watermark, not its own sequence
  // number: the fresh WAL below must land at or above WALSEQ or the
  // `seq >= ckpt.wal_seq` filter would skip it on the next recovery.
  uint64_t max_wal_seq = ckpt.wal_seq;
  for (size_t i = 0; i < wals.size(); ++i) {
    max_wal_seq = std::max(max_wal_seq, wals[i]);
    const std::string path = store.WalPath(wals[i]);
    EBA_ASSIGN_OR_RETURN(WalReadResult wal, ReadWalFile(env, path));
    if (wal.dropped_bytes > 0) {
      if (i + 1 < wals.size()) {
        return Status::Internal("corrupt WAL record mid-chain in " + path);
      }
      EBA_RETURN_IF_ERROR(env->TruncateFile(path, wal.valid_bytes));
      out.wal_bytes_truncated += wal.dropped_bytes;
    }
    ++out.wal_files_replayed;
    for (const WalRecord& record : wal.records) {
      if (record.type != kWalAppendBatch) {
        return Status::Internal("unknown WAL record type " +
                                std::to_string(record.type) + " in " + path);
      }
      EBA_ASSIGN_OR_RETURN(WalAppendBatch batch,
                           DecodeAppendPayload(record.payload));
      EBA_ASSIGN_OR_RETURN(Table * table, db->GetTable(batch.table_name));
      // Mirror the logging path's validate-once discipline: the batch was
      // validated before it was WAL-committed, so decode-time validation
      // here is the one explicit re-check — a failure means the schema no
      // longer matches a record that passed its CRC, which is damage, not a
      // bad client row.
      for (const Row& row : batch.rows) {
        const Status valid = table->ValidateRow(row);
        if (!valid.ok()) {
          return Status::Internal("WAL record in " + path +
                                  " no longer validates against table " +
                                  batch.table_name + ": " + valid.message());
        }
      }
      table->Reserve(table->num_rows() + batch.rows.size());
      for (const Row& row : batch.rows) {
        table->AppendValidatedRow(row);  // pre-validated above
      }
      ++out.wal_records_replayed;
      out.wal_rows_replayed += batch.rows.size();
    }
  }
  out.wal_replay_seconds = SecondsSince(replay_start);

  EBA_ASSIGN_OR_RETURN(const Table* log, db->GetTable(log_table));
  if (ckpt.audit.explained.size() > log->num_rows()) {
    return Status::Internal(
        "checkpoint ckpt-" + std::to_string(ckpt.seq) + " audited " +
        std::to_string(ckpt.audit.explained.size()) + " rows of '" +
        log_table + "', but the recovered log holds " +
        std::to_string(log->num_rows()));
  }
  EBA_ASSIGN_OR_RETURN(StreamingAuditor auditor, Create(db, log_table));
  EBA_RETURN_IF_ERROR(
      auditor.AdoptRecoveredState(std::move(ckpt), env, options,
                                  max_wal_seq + 1));
  return auditor;
}

StatusOr<StreamingReport> StreamingAuditor::ExplainNew(
    const StreamingOptions& options) {
  // The audit lock serializes audits and state accessors only — appends
  // proceed concurrently on writer_mu_. The whole audit evaluates against
  // one snapshot pinned here: every scan, probe, and executor below is
  // clamped to its watermarks, so rows the writer lands mid-audit are
  // invisible now and re-surface as drift on the next call.
  MutexLock lock(*audit_mu_);
  const Database::Snapshot snapshot = db_->CreateSnapshot();
  const CatalogDrift drift = snapshot.DriftSince(snapshot_);
  const bool full_reaudit = drift.catalog_changed;
  if (full_reaudit) {
    // A catalog change can remove or replace the evidence behind an
    // already-granted explanation; the monotone-append invariant is gone,
    // so re-audit everything.
    ResetAuditLocked();
  }
  // The auditor's pool is reused across audits (the serving loop calls
  // ExplainNew per batch; re-spawning the workers each time would rival the
  // audit itself on small batches).
  EBA_ASSIGN_OR_RETURN(
      StreamingReport report,
      engine_.AuditRange(snapshot, drift.appends, &explained_, options,
                         &pool_));
  report.full_reaudit = full_reaudit;
  // The next audit's drift baseline is what THIS audit actually saw — the
  // pinned snapshot, not live state. Rows appended while this audit ran sit
  // past these watermarks and will classify as drift next time.
  snapshot_ = snapshot;
  snapshot_.ReleasePin();
  {
    // Auto-checkpoint once enough WAL has accumulated: audit end is the
    // cheapest moment (the audit state is freshly consistent, and recovery
    // from here needs no converging re-audit of these rows). Checkpointing
    // needs the writer lock (stable WAL/image cut); audit_mu_ -> writer_mu_
    // is the auditor's fixed lock order.
    MutexLock writer_lock(*writer_mu_);
    if (durable_ != nullptr && durable_->wal != nullptr &&
        durable_->options.checkpoint_after_wal_bytes > 0 &&
        durable_->wal->bytes_logged() >=
            durable_->options.checkpoint_after_wal_bytes) {
      EBA_RETURN_IF_ERROR(CheckpointLocked());
    }
  }
  return report;
}

}  // namespace eba
