// Table: a column-oriented, append-only relation with lazily built hash
// indexes and column statistics.
//
// Tables only grow: rows are appended and never rewritten, so an append
// (AppendRow) advances the *append watermark* and nothing else. Cached
// hash indexes and statistics stay live and are extended incrementally past
// the watermark on next access (HashIndex::ExtendTo /
// IncrementalColumnStats::ExtendTo), so consumers holding index pointers
// (e.g. compiled query plans) re-bind instead of re-planning. Replacing a
// table's contents means dropping it and adding a new one, which moves the
// database's catalog generation.

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

  /// Hash index over `col`, built on first use, cached, and extended past
  /// the append watermark on access (the HashIndex object — and therefore
  /// pointers to it — lives as long as the table). Safe to call from
  /// concurrent readers (lazy construction and extension are serialized
  /// internally) AND concurrently with the single writer appending: the
  /// extension folds only rows below the columns' published sizes, and
  /// probes are lock-free (see storage/index.h).
  /// Snapshot readers clamp every lookup to their pinned watermark.
  const HashIndex& GetOrBuildIndex(size_t col) const EBA_EXCLUDES(*lazy_mu_);

  /// Statistics for `col`, computed on first use, cached, and extended past
  /// the append watermark on access; the copy is taken under the lazy
  /// mutex, so it is internally consistent. Under a concurrent writer the
  /// summary covers *at least* the rows below any watermark the caller
  /// observed before the call — possibly more. That slack only perturbs
  /// cardinality estimates (join order); result sets are order-independent.
  ColumnStats GetOrComputeStats(size_t col) const EBA_EXCLUDES(*lazy_mu_);

  /// The append watermark: number of rows ever appended (== num_rows()).
  /// Consumers that recorded the watermark and observe it advance may
  /// *re-bind* their derived state for the new suffix instead of
  /// rebuilding it.
  uint64_t append_watermark() const {
    return static_cast<uint64_t>(num_rows());
  }

  /// Renders rows [from_row, to_row) as CSV text (header included). Saves
  /// route the bytes through an Env.
  std::string ToCsvString(size_t from_row, size_t to_row) const;

  /// Loads rows from a CSV file in ToCsvString's format (header row
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
  // GetOrBuildIndex is the happens-before edge) and live as long as the
  // table.
  mutable std::unique_ptr<Mutex> lazy_mu_;
  mutable std::vector<std::unique_ptr<HashIndex>> indexes_
      EBA_GUARDED_BY(*lazy_mu_);
  mutable std::vector<std::unique_ptr<IncrementalColumnStats>> stats_
      EBA_GUARDED_BY(*lazy_mu_);
};

}  // namespace eba

#endif  // EBA_STORAGE_TABLE_H_
