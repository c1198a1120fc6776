// Per-column statistics used by the cardinality estimator ("the database
// optimizer" in the paper's skip-non-selective-paths optimization, §3.2.1).

#ifndef EBA_STORAGE_STATISTICS_H_
#define EBA_STORAGE_STATISTICS_H_

#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/flat_hash.h"
#include "common/value.h"
#include "storage/column.h"

namespace eba {

/// Summary statistics of one column.
struct ColumnStats {
  size_t num_rows = 0;
  size_t num_nulls = 0;
  /// Distinct non-NULL values.
  size_t num_distinct = 0;
  /// Min/max over non-NULL values (NULL Values if the column is all-NULL).
  Value min;
  Value max;
};

/// Computes exact statistics with a single pass over the column.
ColumnStats ComputeColumnStats(const Column& column);

/// Exact statistics that extend incrementally past an append watermark:
/// ExtendTo folds only the rows appended since the last call into the
/// summary, so a streaming Table keeps its stats current in O(new rows)
/// instead of rescanning the prefix on every append. The distinct-value
/// state (which the one-shot ComputeColumnStats discards) is a FlatSet64 of
/// raw 64-bit payloads — int-like values, or double bit patterns with -0.0
/// folded into 0.0 — so a new value costs a slot, not a node. A NaN equals
/// no value, itself included, so each NaN row counts as one more distinct
/// value without entering the set. String columns read their dictionary
/// size, so they carry no extra state at all.
class IncrementalColumnStats {
 public:
  const ColumnStats& stats() const { return stats_; }
  size_t rows_seen() const { return rows_seen_; }

  /// Folds rows [rows_seen(), column.size()) into the summary. Every call
  /// must see the same column (append-only between calls).
  void ExtendTo(const Column& column);

 private:
  ColumnStats stats_;
  size_t rows_seen_ = 0;
  FlatSet64 distinct_;     // int-like and double columns
  size_t nan_rows_ = 0;    // double columns
  // Raw extrema of an int-like column (meaningful once distinct_ holds a
  // value).
  int64_t min_int_ = std::numeric_limits<int64_t>::max();
  int64_t max_int_ = std::numeric_limits<int64_t>::min();
};

}  // namespace eba

#endif  // EBA_STORAGE_STATISTICS_H_
