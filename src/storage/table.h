// Table: a column-oriented, append-only relation with lazily built hash
// indexes and column statistics.
//
// Mutations are split into two classes so a streaming append workload does
// not throw derived state away:
//  - appends (AppendRow) advance the *append watermark* only; cached hash
//    indexes and statistics stay live and are extended incrementally past
//    the watermark on next access (HashIndex::ExtendTo /
//    IncrementalColumnStats::ExtendTo), so consumers holding index pointers
//    (e.g. compiled query plans) re-bind instead of re-planning;
//  - structural mutations (mutable_column, explicit invalidation — anything
//    that may rewrite existing cells, schemas or dictionaries in place)
//    advance the *structural epoch*, dropping all derived state; consumers
//    must treat a structural-epoch mismatch as "stale — rebuild".

#ifndef EBA_STORAGE_TABLE_H_
#define EBA_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/value.h"
#include "storage/column.h"
#include "storage/index.h"
#include "storage/schema.h"
#include "storage/statistics.h"

namespace eba {

/// A boxed row (one Value per column).
using Row = std::vector<Value>;

class Table {
 public:
  explicit Table(TableSchema schema);

  // Movable, not copyable (indexes hold pointers into columns).
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  /// Release-published row count: a reader that observes n can read every
  /// cell of every row below n (columns publish before the table does).
  size_t num_rows() const { return num_rows_.Load(); }
  size_t num_columns() const { return columns_.size(); }

  void Reserve(size_t rows);

  /// Routes retired derived-state allocations (chunk directories, index
  /// buckets) to the database's reclamation domain. Called by Database when
  /// the table joins it; standalone tables free retired state immediately.
  void AttachEpochManager(EpochManager* epochs) EBA_EXCLUDES(*lazy_mu_);

  /// Checks a row against the schema (arity, per-column types, no NULL in
  /// the primary-key column) without appending it. A row that validates cannot fail to append — write-ahead
  /// logging relies on this: validate, log, then apply.
  Status ValidateRow(const Row& row) const;

  /// Appends a row; the arity and value types must match the schema.
  Status AppendRow(const Row& row);

  /// Appends a row the caller has already passed through ValidateRow. The
  /// durable append path validates the whole batch before WAL-logging it;
  /// re-validating on apply would double the per-row schema-check cost.
  void AppendValidatedRow(const Row& row);

  /// Cell accessors.
  Value Get(size_t row, size_t col) const { return columns_[col].Get(row); }
  Row GetRow(size_t row) const;

  const Column& column(size_t idx) const { return columns_[idx]; }
  Column* mutable_column(size_t idx);

  /// Column by name; Status error if absent.
  StatusOr<const Column*> ColumnByName(const std::string& name) const;

  /// Hash index over `col`, built on first use, cached, and extended past
  /// the append watermark on access (the HashIndex object — and therefore
  /// pointers to it — survives appends; only a structural mutation drops
  /// it). Safe to call from concurrent readers (lazy construction and
  /// extension are serialized internally) AND concurrently with the single
  /// writer appending: the extension folds only rows below the columns'
  /// published sizes, and probes are lock-free (see storage/index.h).
  /// Snapshot readers clamp every lookup to their pinned watermark.
  const HashIndex& GetOrBuildIndex(size_t col) const EBA_EXCLUDES(*lazy_mu_);

  /// Statistics for `col`, computed on first use, cached, and extended past
  /// the append watermark on access; the copy is taken under the lazy
  /// mutex, so it is internally consistent. Under a concurrent writer the
  /// summary covers *at least* the rows below any watermark the caller
  /// observed before the call — possibly more. That slack only perturbs
  /// cardinality estimates (join order); result sets are order-independent.
  ColumnStats GetOrComputeStats(size_t col) const EBA_EXCLUDES(*lazy_mu_);

  /// Drops cached indexes and statistics and advances the structural epoch.
  /// Called automatically by mutable_column; appends do NOT call this.
  void InvalidateDerivedState() const EBA_EXCLUDES(*lazy_mu_);

  /// Monotonic structural-mutation counter: advanced by mutable accesses and
  /// explicit invalidation (anything that may rewrite existing cells in
  /// place), NOT by appends. Consumers holding derived state (hash-index
  /// pointers, compiled query plans) record it at build time and treat a
  /// mismatch as "stale — rebuild".
  uint64_t structural_epoch() const EBA_EXCLUDES(*lazy_mu_) {
    MutexLock lock(*lazy_mu_);
    return structural_epoch_;
  }

  /// The append watermark: number of rows ever appended (== num_rows()).
  /// Consumers that recorded the watermark and observe only a watermark
  /// advance (same structural epoch) may *re-bind* their derived state for
  /// the new suffix instead of rebuilding it.
  uint64_t append_watermark() const {
    return static_cast<uint64_t>(num_rows());
  }

  /// Dumps the table (header + rows) to CSV.
  Status WriteCsv(const std::string& path) const;

  /// Renders rows [from_row, to_row) as CSV text (header included), the
  /// same format WriteCsv produces. Used by crash-safe saves that route
  /// bytes through an Env.
  std::string ToCsvString(size_t from_row, size_t to_row) const;

  /// Loads rows from a CSV file previously produced by WriteCsv (header row
  /// required and validated against `schema`). Timestamps are parsed from
  /// "YYYY-MM-DD HH:MM:SS"; empty fields load as NULL. Malformed numeric
  /// fields (including truncated rows) are rejected with a Status naming
  /// the table, line, and column.
  static StatusOr<Table> ReadCsv(const std::string& path, TableSchema schema);

  /// Bulk-loads a checkpoint chunk image into column `col`
  /// (Column::AppendChunk). The row count does not move: a loader appends
  /// every column's rows, then publishes them with PublishColumnRows.
  Status AppendColumnChunk(size_t col, const ColumnChunk& chunk);

  /// Publishes the rows bulk-loaded into every column: columns first, the
  /// row count last, as AppendRow does. Fails when the columns disagree on
  /// their length.
  Status PublishColumnRows();

 private:
  TableSchema schema_;
  std::vector<Column> columns_;
  PublishedSize num_rows_;
  EpochManager* epochs_ = nullptr;

  // Guards lazy construction of indexes_/stats_ so concurrent readers can
  // share a table. Boxed so the table stays movable (moved-from tables must
  // not be used). The guarded vectors hold owning pointers; the pointees
  // are read lock-free by readers afterwards (the locked extension check in
  // GetOrBuildIndex is the happens-before edge), and only a structural
  // mutation — which holds the lock — frees them.
  mutable std::unique_ptr<Mutex> lazy_mu_;
  mutable std::vector<std::unique_ptr<HashIndex>> indexes_
      EBA_GUARDED_BY(*lazy_mu_);
  mutable std::vector<std::unique_ptr<IncrementalColumnStats>> stats_
      EBA_GUARDED_BY(*lazy_mu_);
  mutable uint64_t structural_epoch_ EBA_GUARDED_BY(*lazy_mu_) = 0;
};

}  // namespace eba

#endif  // EBA_STORAGE_TABLE_H_
