// Checkpoints of streaming-audit state: the database contents plus the
// auditor's explained flags and audit watermarks, published atomically so
// recovery always sees either the previous checkpoint or the complete new
// one.
//
// Store directory layout:
//
//   <dir>/CURRENT          "ckpt-<seq>\n" — atomically renamed into place;
//                          the single commit point of a checkpoint.
//   <dir>/ckpt-<seq>/      one checkpoint, complete on its own:
//       ckpt.txt           manifest ("# eba checkpoint v4" header; SEQ/
//                          WALSEQ/AUDITED/TABLE/CHUNK/WATERMARK lines) with
//                          a trailing CRC line over the body. TABLE lines
//                          carry each table's row count and, per column,
//                          its dictionary size at that count. One CHUNK line
//                          per 64k-row chunk of a table names the checkpoint
//                          that wrote the chunk's file and, per column, the
//                          dictionary size at the chunk's first row.
//       catalog            one framed record holding the schemas and join
//                          metadata (persist.h's manifest text).
//       explained          the explained flags of log rows [0, AUDITED).
//   <dir>/chunks/<table>.<k>.<seq>
//                          rows [64k·k, 64k·(k+1)) of <table>, or up to its
//                          last row, as checkpoint <seq> wrote them.
//   <dir>/wal-<seq>.log    the WAL opened when ckpt-<seq> was published;
//                          recovery replays every wal-N.log with N >= the
//                          checkpoint's WALSEQ, in order.
//
// Tables only grow, so a filled chunk never changes: each checkpoint names
// the chunk files of the published one and writes only the chunks whose
// rows changed since (a grown table's open last chunk, and chunks filled
// since), under its own sequence. No file a published manifest names is
// ever rewritten.
//
// A chunk file holds rows [from, to) of one table as binary column images,
// in the WAL's CRC-framed records (storage/wal.h):
//
//   header record   table name, row range, per column its type and its
//                   dictionary size at `from`;
//   chunk records   one per column: the chunk's raw little-endian 8-byte
//                   slots, its null flags when a row is NULL, and the
//                   dictionary entries its rows use first
//                   (storage/column.h ColumnChunk).
//
// The explained file holds one framed record per 64k-row chunk of the log:
// its first row, its row count and one 0/1 flag per row. Each checkpoint
// writes it whole; the manifest records only its row count (AUDITED).
//
// Loading copies each chunk into fresh column chunks. Every byte is checked:
// a short, torn or CRC-failing record, a header or CHUNK line that disagrees
// with the rows loaded so far, an out-of-range code, bool or null flag, and
// explained records out of order, with a flag other than 0 or 1, or not
// covering exactly AUDITED rows are errors. CSV is only for import and
// export (persist.h).

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
  /// Pure data-load time, reported so benchmarks can separate "reload the
  /// tables" (paid by any restart) from "recover the audit state".
  double db_load_seconds = 0.0;
};

class CheckpointStore {
 public:
  /// `env` == nullptr means the real filesystem.
  CheckpointStore(Env* env, std::string dir);

  const std::string& dir() const { return dir_; }

  /// Creates the store directory and its chunks/ directory if missing.
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
  /// already holds stale records. `tables_continue` says the tables are
  /// CURRENT's, grown by appends only: the chunks whose rows did not change
  /// since are then named, not written. Pass false when that is not known
  /// (no checkpoint published by this writer yet) or not true (a catalog
  /// change: a same-name replacement's rows are not the published rows
  /// plus a suffix); every chunk is then written, as it is when CURRENT's
  /// manifest cannot be read. Returns the new sequence number.
  StatusOr<uint64_t> Prepare(const Database& db, const AuditState& audit,
                             bool tables_continue, uint64_t min_seq = 0);

  /// Atomically flips CURRENT to `seq`, then deletes every other ckpt-*
  /// directory, every chunk file the new manifest does not name, and the
  /// WAL files older than its WALSEQ.
  Status Publish(uint64_t seq);

  /// Loads the checkpoint named by CURRENT: its manifest, its catalog, the
  /// chunk files it names in row order, and its explained flags. Any
  /// damage — a manifest failing its CRC, a torn or corrupt data record, a
  /// manifest of another format version — is an error: CURRENT only ever
  /// names fully synced checkpoints, so corruption here is real damage, not
  /// a crash artifact. Every file is read through the store's Env. NotFound
  /// when no checkpoint exists.
  StatusOr<CheckpointContents> LoadNewest() const;

 private:
  /// Parsed ckpt.txt.
  struct Manifest {
    uint64_t seq = 0;
    uint64_t wal_seq = 0;
    /// Log rows the explained file covers.
    uint64_t audited_rows = 0;
    std::map<std::string, uint64_t> audit_watermarks;
    /// One 64k-row chunk of a table: the checkpoint that wrote its file
    /// and each column's dictionary size at its first row.
    struct Chunk {
      uint64_t seq = 0;
      std::vector<uint64_t> dict_sizes;
    };
    /// Per table, by name: its row count at this checkpoint, each column's
    /// dictionary size at that count (0 for non-strings), and its chunks in
    /// row order.
    struct TableState {
      uint64_t rows = 0;
      std::vector<uint64_t> dict_sizes;
      std::vector<Chunk> chunks;
    };
    std::map<std::string, TableState> tables;
  };

  std::string CkptDir(uint64_t seq) const;
  std::string ChunkDir() const;
  /// chunks/<table>.<k>.<seq>: the file checkpoint `seq` wrote for chunk
  /// `k` of `table`.
  std::string ChunkPath(const std::string& table, uint64_t k,
                        uint64_t seq) const;
  /// Parses ckpt-<seq>/ckpt.txt.
  StatusOr<Manifest> ReadManifest(uint64_t seq) const;
  Status WriteManifest(uint64_t seq, const Manifest& m) const;

  Env* env_;
  std::string dir_;
};

}  // namespace eba

#endif  // EBA_STORAGE_CHECKPOINT_H_
