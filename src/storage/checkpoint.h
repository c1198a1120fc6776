// Checkpoints of streaming-audit state: the database contents plus the
// auditor's explained flags and audit watermarks, published atomically so
// recovery always sees either the previous checkpoint or the complete new
// one.
//
// Store directory layout:
//
//   <dir>/CURRENT          "ckpt-<seq>\n" — atomically renamed into place;
//                          the single commit point of a checkpoint.
//   <dir>/ckpt-<seq>/      one checkpoint:
//       ckpt.txt           manifest ("# eba checkpoint v3" header; SEQ/BASE/
//                          WALSEQ/AUDITED/TABLE/SEGMENT/WATERMARK lines)
//                          with a trailing CRC line over the body. TABLE
//                          lines carry each table's row count and, per
//                          column, its dictionary size at that count.
//       explained          the explained flags of log rows [0, AUDITED).
//       catalog            full checkpoints: one framed record holding the
//                          schemas and join metadata (persist.h's manifest
//                          text).
//       db/<table>         full checkpoints: every row of <table>.
//       seg-<table>        incremental checkpoints: the rows appended to
//                          <table> since the BASE checkpoint.
//   <dir>/wal-<seq>.log    the WAL opened when ckpt-<seq> was published;
//                          recovery replays every wal-N.log with N >= the
//                          newest checkpoint's WALSEQ, in order.
//
// A table data file holds rows [from, to) of one table as binary column
// images, in the WAL's CRC-framed records (storage/wal.h):
//
//   header record   table name, row range, per column its type and its
//                   dictionary size at `from`;
//   chunk records   one per (column, 64k-row chunk): the chunk's raw
//                   little-endian 8-byte slots, its null flags when a row
//                   is NULL, and the dictionary entries its rows use first
//                   (storage/column.h ColumnChunk).
//
// The explained file holds one framed record per 64k-row chunk of the log:
// its first row, its row count and one 0/1 flag per row. Each checkpoint
// writes it whole; the manifest records only its row count (AUDITED).
//
// Loading copies each chunk into fresh column chunks. Every byte is checked:
// a short, torn or CRC-failing record, a header that disagrees with the
// manifest or with the rows loaded so far, an out-of-range code, bool or
// null flag, and explained records out of order, with a flag other than 0
// or 1, or not covering exactly AUDITED rows are errors. CSV is only for
// import and export (persist.h).
//
// Incremental checkpoints chain through BASE pointers back to a full
// checkpoint. Publish garbage-collects checkpoints outside the new chain
// and WAL files older than the new WALSEQ.

#ifndef EBA_STORAGE_CHECKPOINT_H_
#define EBA_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/database.h"
#include "storage/io.h"

namespace eba {

/// The auditor-side state a checkpoint persists alongside the database.
struct AuditState {
  /// One flag per log row covered by the last completed audit pass (1 when
  /// explained); its size is the audited row count.
  std::vector<uint8_t> explained;
  /// Per-table append watermarks as of the last completed audit pass (NOT
  /// current row counts: tables may have grown since the last audit, and
  /// recovery must re-observe that drift or the delta pass silently skips
  /// it).
  std::map<std::string, uint64_t> audit_watermarks;
};

/// A fully reconstructed checkpoint: the database at checkpoint time plus
/// the audit state and the WAL sequence to resume replay from.
struct CheckpointContents {
  Database db;
  AuditState audit;
  uint64_t seq = 0;
  uint64_t wal_seq = 0;
  /// Chain length (1 = full checkpoint only) and pure data-load time,
  /// reported so benchmarks can separate "reload the tables" (paid by any
  /// restart) from "recover the audit state".
  size_t chain_length = 0;
  double db_load_seconds = 0.0;
};

class CheckpointStore {
 public:
  /// `env` == nullptr means the real filesystem.
  CheckpointStore(Env* env, std::string dir);

  const std::string& dir() const { return dir_; }

  /// Creates the store directory if missing.
  Status Init();

  /// Sequence number named by CURRENT; NotFound when no checkpoint has ever
  /// been published.
  StatusOr<uint64_t> CurrentSeq() const;

  /// Path of the WAL file paired with checkpoint `seq`.
  std::string WalPath(uint64_t seq) const;

  /// The sequence numbers of the store's WAL files (every name WalPath
  /// produces that is present), ascending.
  StatusOr<std::vector<uint64_t>> ListWalSeqs() const;

  /// Writes checkpoint `max(CurrentSeq()+1, min_seq)` (starting at 1)
  /// without publishing it: a crash before Publish leaves CURRENT pointing
  /// at the old checkpoint. `min_seq` lets callers keep the sequence ahead
  /// of WAL files that outrank CURRENT — recovery opens its fresh WAL at
  /// (highest replayed seq + 1) without publishing a checkpoint, so the
  /// next checkpoint must not re-allocate a sequence whose wal-<seq>.log
  /// already holds stale records. `full` forces a complete database image;
  /// otherwise rows past the current checkpoint's per-table counts are
  /// saved as segments (promoted to full when there is no usable base, e.g.
  /// tables were added or dropped, or one shrank). A same-name table
  /// replaced by a larger one looks like growth here, so callers that see a
  /// catalog change pass `full`. Returns the new sequence number.
  StatusOr<uint64_t> Prepare(const Database& db, const AuditState& audit,
                             bool full, uint64_t min_seq = 0);

  /// Atomically flips CURRENT to `seq`, then garbage-collects checkpoints
  /// outside the new BASE chain and WAL files older than the new WALSEQ.
  Status Publish(uint64_t seq);

  /// Loads the checkpoint named by CURRENT: walks the BASE chain to its
  /// full root, loads that database image, and applies each chain link's
  /// segments in order. Any damage — a manifest failing its CRC, a torn or
  /// corrupt data record, a manifest of another format version — is an
  /// error: CURRENT only ever names fully synced checkpoints, so corruption
  /// here is real damage, not a crash artifact. Every file is read through
  /// the store's Env. NotFound when no checkpoint exists.
  StatusOr<CheckpointContents> LoadNewest() const;

 private:
  /// Parsed ckpt.txt.
  struct Manifest {
    uint64_t seq = 0;
    bool has_base = false;
    uint64_t base = 0;
    uint64_t wal_seq = 0;
    /// Log rows the explained file covers.
    uint64_t audited_rows = 0;
    std::map<std::string, uint64_t> audit_watermarks;
    /// Per table, by name: its cumulative row count at this checkpoint and
    /// each column's dictionary size at that count (0 for non-strings) —
    /// the dictionary bases of the next incremental link.
    struct TableState {
      uint64_t rows = 0;
      std::vector<uint64_t> dict_sizes;
    };
    std::map<std::string, TableState> tables;
    /// Incremental links: table -> (from_row, to_row, file name).
    struct Segment {
      uint64_t from_row = 0;
      uint64_t to_row = 0;
      std::string file;
    };
    std::map<std::string, Segment> segments;
  };

  std::string CkptDir(uint64_t seq) const;
  /// Parses ckpt-<seq>/ckpt.txt.
  StatusOr<Manifest> ReadManifest(uint64_t seq) const;
  Status WriteManifest(uint64_t seq, const Manifest& m) const;

  Env* env_;
  std::string dir_;
};

}  // namespace eba

#endif  // EBA_STORAGE_CHECKPOINT_H_
