#include "storage/statistics.h"

#include <algorithm>

namespace eba {

namespace {

/// Boxes a raw int64 payload in the type of an int-like column.
Value BoxIntLike(DataType type, int64_t raw) {
  switch (type) {
    case DataType::kBool:
      return Value::Bool(raw != 0);
    case DataType::kTimestamp:
      return Value::Timestamp(raw);
    default:
      return Value::Int64(raw);
  }
}

}  // namespace

void IncrementalColumnStats::ExtendTo(const Column& column) {
  const size_t n = column.size();
  // True no-op when nothing was appended: readers may hold the returned
  // stats reference outside the table's lazy mutex, so an already-current
  // summary must not be rewritten (even with identical values).
  if (n == rows_seen_) return;
  if (column.IsIntLike()) {
    // Chunk-aware fold over the raw int64 payload: distinct set and
    // min/max run over per-chunk arrays (same-type Values order as their
    // payloads), and the extrema are boxed once per call.
    column.ForEachInt64Span(
        rows_seen_, n,
        [&](size_t first_row, const int64_t* data, size_t count) {
          for (size_t i = 0; i < count; ++i) {
            if (column.IsNull(first_row + i)) continue;
            distinct_ints_.insert(data[i]);
            min_int_ = std::min(min_int_, data[i]);
            max_int_ = std::max(max_int_, data[i]);
          }
        });
    if (!distinct_ints_.empty()) {
      stats_.min = BoxIntLike(column.type(), min_int_);
      stats_.max = BoxIntLike(column.type(), max_int_);
    }
  } else {
    for (size_t row = rows_seen_; row < n; ++row) {
      if (column.IsNull(row)) continue;
      Value v = column.Get(row);
      if (!column.IsString()) {  // string distinct uses the dictionary
        distinct_values_.insert(v);
      }
      if (stats_.min.is_null()) {
        stats_.min = v;
        stats_.max = std::move(v);
      } else {
        if (v < stats_.min) stats_.min = v;
        if (stats_.max < v) stats_.max = std::move(v);
      }
    }
  }
  rows_seen_ = n;
  stats_.num_rows = n;
  stats_.num_nulls = column.NullCount();
  if (column.IsString()) {
    // Dictionary size equals the exact distinct count (codes are only
    // minted for strings that occur); min/max still required the scan
    // above because dictionary order is insertion order.
    stats_.num_distinct = column.DictionarySize();
  } else {
    stats_.num_distinct = column.IsIntLike() ? distinct_ints_.size()
                                             : distinct_values_.size();
  }
}

ColumnStats ComputeColumnStats(const Column& column) {
  IncrementalColumnStats incremental;
  incremental.ExtendTo(column);
  return incremental.stats();
}

}  // namespace eba
