// Column: an append-only typed vector with dictionary-encoded strings.
//
// Integer-like types (bool/int64/timestamp) share an int64 payload so the
// join machinery has a single fast path. Strings are dictionary-encoded:
// the payload stores a code into a per-column dictionary, which makes
// grouping and joining on strings cheap and keeps memory bounded for the
// highly repetitive categorical attributes (department codes, action codes).
//
// Payloads are stored in fixed 64k-row chunks (storage/chunk.h): tables
// grow by appending chunks instead of reallocating, so an append never
// copies existing rows and slot addresses stay stable. All payload access
// goes through the typed accessors or the ForEach*Span scan primitives —
// nothing outside storage/ sees the chunk layout (enforced by the
// column-payload lint rule).
//
// Single-writer/multi-reader contract: one writer appends while any number
// of snapshot-pinned readers access rows strictly below their pinned
// watermark. Every side structure a reader touches is publish-after-write:
// payload and null-bitmap sizes are release-published (ChunkedVector), the
// dictionary stores entries in small stable chunks with a published size,
// and the writer-side dictionary hash (InternString/FindStringCode, both
// planning-time-cold) is the one boxed mutex on the read path. A column has
// no setter: rows, once published, never change.

#ifndef EBA_STORAGE_COLUMN_H_
#define EBA_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/chunk.h"

namespace eba {

/// Rows of one column as a checkpoint chunk image (storage/checkpoint.h),
/// viewed in place: the column's raw payload, so loading is a copy.
struct ColumnChunk {
  /// One 8-byte little-endian slot per row: int64/timestamp values, bools
  /// as 0/1, doubles as IEEE-754 bits, strings as dictionary codes; 0 in
  /// NULL rows.
  std::string_view values;
  /// Empty when no row is NULL, else one 0/1 flag per row.
  std::string_view nulls;
  /// The dictionary entries these rows use first, in code order.
  std::vector<std::string_view> dict;
};

class Column {
 public:
  explicit Column(DataType type);
  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  DataType type() const { return type_; }
  /// Release-published: a reader that observes size n can access every row
  /// below n through any accessor.
  size_t size() const { return size_.Load(); }
  bool empty() const { return size() == 0; }

  void Reserve(size_t n);

  /// Routes retired chunk directories to the database's reclamation domain
  /// (storage/epoch.h). Called by Table when it joins a Database.
  void AttachEpochManager(EpochManager* epochs);

  /// Appends a value; the value must be NULL or match the column type.
  Status Append(const Value& v);

  /// Fast typed appends (no per-call type dispatch). CHECK on misuse.
  void AppendInt64(int64_t v);
  void AppendTimestamp(int64_t seconds);
  void AppendBool(bool v);
  void AppendDouble(double v);
  void AppendString(const std::string& v);
  void AppendNull();

  bool IsNull(size_t row) const {
    // The null bitmap is backfilled lazily on the first NULL; a reader that
    // observes a shorter (or empty) bitmap correctly treats the row as
    // non-null — the bitmap covering `row` is published before the size
    // that makes `row` readable.
    return row < nulls_.size() && nulls_[row] != 0;
  }

  /// Boxed accessor.
  Value Get(size_t row) const;

  /// Rows [begin, end), which must lie in one 64k-row chunk, as a chunk
  /// image viewing this column's memory (slots never move, so the views
  /// stay valid while the column lives and the rows are not rewritten).
  /// `*dict_size` is the dictionary size at `begin` on entry and at `end`
  /// on return; `dict` views the entries in between.
  ColumnChunk ExportChunk(size_t begin, size_t end, size_t* dict_size) const;

  /// Appends the rows of a chunk image with one bulk copy per payload.
  /// Rejects a slot count that disagrees with the null flags, a code at or
  /// past the dictionary size once `dict` is added, a bool or null flag
  /// other than 0 or 1, a nonzero slot in a NULL row, and a dictionary
  /// entry the column already holds. After a rejection the column may hold
  /// part of `dict` and must be discarded.
  Status AppendChunk(const ColumnChunk& chunk);

  /// Raw payload accessors (undefined for NULL rows; callers check IsNull).
  int64_t Int64At(size_t row) const { return ints_[row]; }
  double DoubleAt(size_t row) const { return doubles_[row]; }
  const std::string& StringAt(size_t row) const {
    return dict_[static_cast<size_t>(ints_[row])];
  }
  /// Dictionary code of a string cell.
  int64_t StringCodeAt(size_t row) const { return ints_[row]; }

  /// The string a dictionary code decodes to. `code` must come from this
  /// column (0 <= code < DictionarySize()). Entries never move once
  /// published, so the reference stays valid across concurrent appends.
  const std::string& DictionaryEntry(int64_t code) const {
    return dict_[static_cast<size_t>(code)];
  }

  /// A read view of the int64 payload (integer-like values and dictionary
  /// codes) and the null flags, with both chunk directories loaded once at
  /// construction. It reads every row below the size the column had
  /// published when it was built, so it is valid only while the caller
  /// holds the snapshot pin its row bound came from, and only for rows
  /// below that bound. It is never cached in a plan: cached plans outlive
  /// snapshot pins. The executor binds one per checked column per step.
  class Reader {
   public:
    explicit Reader(const Column& column)
        : ints_(column.ints_.Published()), nulls_(column.nulls_.Published()) {}

    /// As Column::IsNull: a row past the flags loaded here is non-null,
    /// because the flags of a NULL row are published before the row.
    bool IsNull(size_t row) const {
      return row < nulls_.size && nulls_[row] != 0;
    }
    int64_t Int64At(size_t row) const { return ints_[row]; }

   private:
    ChunkedVector<int64_t>::View ints_;
    ChunkedVector<uint8_t>::View nulls_;
  };

  /// True for types whose payload lives in the int64 vector.
  bool IsIntLike() const {
    return type_ == DataType::kBool || type_ == DataType::kInt64 ||
           type_ == DataType::kTimestamp;
  }
  bool IsString() const { return type_ == DataType::kString; }

  /// Number of distinct strings in this column's dictionary
  /// (release-published; codes below it decode safely).
  size_t DictionarySize() const { return dict_.size(); }

  /// Code for a string, if it occurs in this column. Takes the dictionary
  /// mutex — planning-time only, never in a probe inner loop.
  std::optional<int64_t> FindStringCode(const std::string& s) const;

  /// Number of NULL cells (relaxed; exact only for the writer).
  size_t NullCount() const {
    return static_cast<size_t>(null_count_.Load());
  }

  /// Appends boxed Values for `row_ids` (one per id, in order) onto `out`.
  /// This is the single materialization point of the late-materialization
  /// executor: row ids flow through joins and filters unboxed, and boxed
  /// Values are produced here exactly once, at the final projection.
  void MaterializeInto(const std::vector<uint32_t>& row_ids,
                       std::vector<Value>* out) const;

  /// Chunk-aware scan over the int64 payload (int-like and string columns —
  /// for strings the values are dictionary codes): invokes
  /// fn(first_row, data, count) for each maximal single-chunk run of rows
  /// in [begin, end). Incremental index builds and stats folds use this so
  /// their inner loops run over raw per-chunk arrays instead of per-row
  /// shift+mask access.
  template <typename Fn>
  void ForEachInt64Span(size_t begin, size_t end, Fn&& fn) const {
    ints_.ForEachSpan(begin, end, fn);
  }

 private:
  int64_t InternString(const std::string& s);
  /// Backfills the null bitmap on the first NULL: rows appended before it
  /// have no flag yet.
  void EnsureNullBitmap();

  DataType type_;
  PublishedSize size_;
  AtomicCounter null_count_;
  ChunkedVector<int64_t> ints_;
  ChunkedVector<double> doubles_;
  /// Dictionary entries in small stable chunks: readers decode codes
  /// lock-free below the published size.
  ChunkedVector<std::string, kDictChunkShift> dict_;
  /// The writer-side reverse map. Boxed so Column stays movable (moves are
  /// single-threaded setup/teardown, like every other member).
  std::unique_ptr<Mutex> dict_mu_;
  std::unordered_map<std::string, int64_t> dict_lookup_
      EBA_GUARDED_BY(*dict_mu_);
  ChunkedVector<uint8_t> nulls_;  // allocated lazily on first NULL
};

}  // namespace eba

#endif  // EBA_STORAGE_COLUMN_H_
