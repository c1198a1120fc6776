#include "storage/statistics.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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

/// The distinct-set key of a non-NaN double: its bit pattern, with -0.0
/// folded into 0.0 since the two compare equal.
uint64_t DoubleKey(double d) {
  if (d == 0.0) return 0;
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
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
            distinct_.Insert(static_cast<uint64_t>(data[i]));
            min_int_ = std::min(min_int_, data[i]);
            max_int_ = std::max(max_int_, data[i]);
          }
        });
    if (!distinct_.empty()) {
      stats_.min = BoxIntLike(column.type(), min_int_);
      stats_.max = BoxIntLike(column.type(), max_int_);
    }
  } else {
    for (size_t row = rows_seen_; row < n; ++row) {
      if (column.IsNull(row)) continue;
      if (!column.IsString()) {  // string distinct uses the dictionary
        const double d = column.DoubleAt(row);
        if (std::isnan(d)) {
          ++nan_rows_;
        } else {
          distinct_.Insert(DoubleKey(d));
        }
      }
      Value v = column.Get(row);
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
    stats_.num_distinct = distinct_.size() + nan_rows_;
  }
}

ColumnStats ComputeColumnStats(const Column& column) {
  IncrementalColumnStats incremental;
  incremental.ExtendTo(column);
  return incremental.stats();
}

}  // namespace eba
