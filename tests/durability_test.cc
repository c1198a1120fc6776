// Durability subsystem tests: CRC32 vectors, WAL framing with torn-tail and
// bit-flip corruption at every byte, checkpoints that share filled chunk
// files and their binary data files (bit flips, prefixes, format versions),
// crash-safe SaveDatabase, and the headline suite — a
// deterministic process kill at EVERY write-class syscall boundary of a
// durable streaming-audit schedule, followed by recovery and a differential
// check against a fresh ExplainAll oracle on a cloned database.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "careweb/generator.h"
#include "careweb/workload.h"
#include "common/crc32.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "log/access_log.h"
#include "storage/checkpoint.h"
#include "storage/io.h"
#include "storage/persist.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::BuildPaperToyDatabase;
using testing_util::CloneDatabase;
using testing_util::UnwrapOrDie;

/// This process's store root: parallel copies of the suite must not share
/// stores.
std::string TempRoot() {
  return ::testing::TempDir() + "/eba_durability-" +
         std::to_string(::getpid());
}

/// Removes TempRoot() after the last test.
class TempRootCleanup : public ::testing::Environment {
 public:
  void TearDown() override { (void)RealEnv()->RemoveAll(TempRoot()); }
};
[[maybe_unused]] ::testing::Environment* const kTempRootCleanup =
    ::testing::AddGlobalTestEnvironment(new TempRootCleanup);

std::string TempDir(const std::string& name) {
  const std::string dir = TempRoot() + "/" + name;
  (void)RealEnv()->RemoveAll(dir);
  EXPECT_TRUE(RealEnv()->CreateDirs(dir).ok());
  return dir;
}

std::string ReadBytes(const std::string& path) {
  return UnwrapOrDie(RealEnv()->ReadFileToString(path), path.c_str());
}

/// Overwrites `path` without syncing: the corruption sweeps rewrite
/// half-megabyte chunk files hundreds of times, and only this process reads
/// them back.
void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  EBA_CHECK_MSG(out.good(), path);
}

// ---------------------------------------------------------------------------
// CRC32

TEST(Crc32Test, KnownVectorAndIncremental) {
  // The canonical CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Incremental == one-shot.
  const uint32_t part = Crc32("12345");
  EXPECT_EQ(Crc32(std::string_view("6789"), part), Crc32("123456789"));
  // Sensitive to any byte change.
  EXPECT_NE(Crc32("123456789"), Crc32("123456788"));
}

// The table-driven fast path must equal the bit-at-a-time definition for
// every length and alignment: WAL, wire and checkpoint bytes depend on it.
TEST(Crc32Test, MatchesBitwiseDefinition) {
  const auto bitwise = [](const std::string& bytes) {
    uint32_t c = 0xFFFFFFFFu;
    for (const char ch : bytes) {
      c ^= static_cast<uint8_t>(ch);
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::string data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<char>(i * 131 + 7));
  for (size_t offset = 0; offset < 4; ++offset) {
    for (size_t len = 0; offset + len <= data.size(); ++len) {
      const std::string bytes = data.substr(offset, len);
      ASSERT_EQ(Crc32(bytes), bitwise(bytes))
          << "offset " << offset << " length " << len;
    }
  }
}

// ---------------------------------------------------------------------------
// WAL framing

std::vector<Row> SampleRows() {
  std::vector<Row> rows;
  rows.push_back({Value::Int64(42), Value::Timestamp(1234567890),
                  Value::String("viewed record"), Value::Bool(true)});
  rows.push_back({Value::Int64(-7), Value::Double(3.25), Value::Null(),
                  Value::String("")});
  return rows;
}

void ExpectRowsEqual(const std::vector<Row>& got,
                     const std::vector<Row>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << "row " << r;
    for (size_t c = 0; c < got[r].size(); ++c) {
      EXPECT_TRUE(got[r][c] == want[r][c])
          << "row " << r << " col " << c << ": " << got[r][c].ToString()
          << " vs " << want[r][c].ToString();
    }
  }
}

TEST(WalTest, RoundTripAllValueTypes) {
  const std::string dir = TempDir("wal_roundtrip");
  const std::string path = dir + "/wal-1.log";
  const std::vector<Row> rows = SampleRows();
  {
    auto wal = UnwrapOrDie(WalWriter::Open(RealEnv(), path, WalSync::kBatch));
    EBA_ASSERT_OK(wal->AppendRecord(kWalAppendBatch,
                                    EncodeAppendPayload("Log", rows)));
    EBA_ASSERT_OK(wal->AppendRecord(kWalAppendBatch,
                                    EncodeAppendPayload("Visits", {})));
    EBA_ASSERT_OK(wal->Commit());
    EBA_ASSERT_OK(wal->Close());
  }
  const WalReadResult read = UnwrapOrDie(ReadWalFile(RealEnv(), path));
  ASSERT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.dropped_bytes, 0u);
  EXPECT_EQ(read.valid_bytes, ReadBytes(path).size());

  const WalAppendBatch b0 =
      UnwrapOrDie(DecodeAppendPayload(read.records[0].payload));
  EXPECT_EQ(b0.table_name, "Log");
  ExpectRowsEqual(b0.rows, rows);
  const WalAppendBatch b1 =
      UnwrapOrDie(DecodeAppendPayload(read.records[1].payload));
  EXPECT_EQ(b1.table_name, "Visits");
  EXPECT_TRUE(b1.rows.empty());
}

TEST(WalTest, ReopenAppends) {
  const std::string dir = TempDir("wal_reopen");
  const std::string path = dir + "/wal-1.log";
  for (int i = 0; i < 3; ++i) {
    auto wal = UnwrapOrDie(WalWriter::Open(RealEnv(), path, WalSync::kAlways));
    EBA_ASSERT_OK(wal->AppendRecord(
        kWalAppendBatch, EncodeAppendPayload("Log", SampleRows())));
    EBA_ASSERT_OK(wal->Close());
  }
  const WalReadResult read = UnwrapOrDie(ReadWalFile(RealEnv(), path));
  EXPECT_EQ(read.records.size(), 3u);
  EXPECT_EQ(read.dropped_bytes, 0u);
}

/// Writes a two-record WAL and returns (file bytes, first record's framed
/// size) so corruption tests know the record boundary.
std::pair<std::string, size_t> TwoRecordWal(const std::string& dir) {
  const std::string path = dir + "/wal-1.log";
  const std::string p0 = EncodeAppendPayload("Log", SampleRows());
  auto wal = UnwrapOrDie(WalWriter::Open(RealEnv(), path, WalSync::kNone));
  EBA_CHECK(wal->AppendRecord(kWalAppendBatch, p0).ok());
  EBA_CHECK(
      wal->AppendRecord(kWalAppendBatch, EncodeAppendPayload("Visits", {}))
          .ok());
  EBA_CHECK(wal->Close().ok());
  const size_t kHeader = 9;  // u32 len + u32 crc + u8 type
  return {ReadBytes(path), kHeader + p0.size()};
}

TEST(WalTest, TornTailTruncatedAtEveryPrefix) {
  const std::string dir = TempDir("wal_torn");
  const auto [full, first_end] = TwoRecordWal(dir);
  const std::string path = dir + "/cut.log";
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    WriteBytes(path, full.substr(0, cut));
    const WalReadResult read = UnwrapOrDie(ReadWalFile(RealEnv(), path));
    // Exactly the records wholly inside the prefix survive; the torn
    // remainder is reported, never turned into a record.
    size_t want = 0;
    if (cut >= full.size()) want = 2;
    else if (cut >= first_end) want = 1;
    ASSERT_EQ(read.records.size(), want) << "cut at byte " << cut;
    const uint64_t want_valid = want == 2 ? full.size()
                                : want == 1 ? first_end
                                            : 0;
    EXPECT_EQ(read.valid_bytes, want_valid) << "cut at byte " << cut;
    EXPECT_EQ(read.dropped_bytes, cut - want_valid) << "cut at byte " << cut;
  }
}

TEST(WalTest, BitFlipAnywhereIsDetectedAndTruncated) {
  const std::string dir = TempDir("wal_bitflip");
  const auto [full, first_end] = TwoRecordWal(dir);
  const std::string path = dir + "/flip.log";
  for (size_t off = 0; off < full.size(); ++off) {
    std::string bytes = full;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x40);
    WriteBytes(path, bytes);
    const WalReadResult read = UnwrapOrDie(ReadWalFile(RealEnv(), path));
    // The CRC stops the reader at the record containing the flip: records
    // strictly before it survive, it and everything after are dropped.
    const size_t want = off < first_end ? 0 : 1;
    ASSERT_LE(read.records.size(), want) << "flip at byte " << off;
    EXPECT_EQ(read.valid_bytes + read.dropped_bytes, full.size());
    if (read.records.size() == 1) {
      // The surviving record must be byte-identical to the original.
      const WalAppendBatch b =
          UnwrapOrDie(DecodeAppendPayload(read.records[0].payload));
      EXPECT_EQ(b.table_name, "Log");
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint store

AuditState MakeAuditState(std::vector<uint8_t> explained,
                          const Database& db) {
  AuditState a;
  a.explained = std::move(explained);
  for (const std::string& name : db.TableNames()) {
    a.audit_watermarks[name] = db.GetTable(name).value()->num_rows();
  }
  return a;
}

void ExpectDbRowsEqual(const Database& got, const Database& want) {
  ASSERT_EQ(got.TableNames(), want.TableNames());
  for (const std::string& name : want.TableNames()) {
    const Table* g = got.GetTable(name).value();
    const Table* w = want.GetTable(name).value();
    ASSERT_EQ(g->num_rows(), w->num_rows()) << name;
    for (size_t r = 0; r < w->num_rows(); ++r) {
      const Row grow = g->GetRow(r);
      const Row wrow = w->GetRow(r);
      ASSERT_EQ(grow.size(), wrow.size()) << name << " row " << r;
      for (size_t c = 0; c < wrow.size(); ++c) {
        ASSERT_TRUE(grow[c] == wrow[c])
            << name << " row " << r << " col " << c;
      }
    }
  }
}

/// The CHUNK lines of ckpt-<seq>'s manifest as the chunk files they name
/// ("<table>.<k>.<writer seq>").
std::set<std::string> NamedChunkFiles(const std::string& dir, uint64_t seq) {
  std::istringstream in(
      ReadBytes(dir + "/ckpt-" + std::to_string(seq) + "/ckpt.txt"));
  std::set<std::string> files;
  std::string directive, table, k, writer;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    if (fields >> directive >> table >> k >> writer && directive == "CHUNK") {
      files.insert(table + "." + k + "." + writer);
    }
  }
  return files;
}

/// Checks what a store holds right after Publish(seq): CURRENT, ckpt-<seq>,
/// exactly the chunk files its manifest names, and the WALs from seq on.
void ExpectStoreHoldsOnly(const std::string& dir, uint64_t seq) {
  const std::string ckpt = "ckpt-" + std::to_string(seq);
  for (const std::string& name : UnwrapOrDie(RealEnv()->ListDir(dir))) {
    const bool old_wal =
        name.rfind("wal-", 0) == 0 && std::stoull(name.substr(4)) < seq;
    EXPECT_TRUE(name == "CURRENT" || name == ckpt || name == "chunks" ||
                (name.rfind("wal-", 0) == 0 && !old_wal))
        << dir << " still holds " << name << " after publishing " << ckpt;
  }
  const std::vector<std::string> chunks =
      UnwrapOrDie(RealEnv()->ListDir(dir + "/chunks"));
  EXPECT_EQ(std::set<std::string>(chunks.begin(), chunks.end()),
            NamedChunkFiles(dir, seq));
}

/// A table "T" of every column type: `id` (primary key), `flag` and
/// `score` NULL from the first row on, a `tag` string whose dictionary
/// grows every 997 rows, and an `at` timestamp NULL only past row 100000.
Database TypedDatabase() {
  Database db;
  const Status s = db.CreateTable(TableSchema(
      "T", {ColumnDef{"id", DataType::kInt64, "t", true},
            ColumnDef{"flag", DataType::kBool, "", false},
            ColumnDef{"score", DataType::kDouble, "", false},
            ColumnDef{"tag", DataType::kString, "", false},
            ColumnDef{"at", DataType::kTimestamp, "", false}}));
  EBA_CHECK_MSG(s.ok(), s.ToString());
  return db;
}

void AppendTypedRows(Database* db, int64_t from, int64_t to) {
  Table* table = db->GetTable("T").value();
  for (int64_t r = from; r < to; ++r) {
    EBA_CHECK(table
                  ->AppendRow({Value::Int64(r * 7 - 100),
                               r % 3 == 0 ? Value::Null()
                                          : Value::Bool(r % 2 == 1),
                               r % 5 == 0 ? Value::Null()
                                          : Value::Double(r * 0.5),
                               Value::String("tag" + std::to_string(r / 997)),
                               r > 100000 && r % 11 == 0
                                   ? Value::Null()
                                   : Value::Timestamp(r)})
                  .ok());
  }
}

// A filled 64k-row chunk is written once, by the checkpoint that first saw
// it filled, and later manifests name that same file; each checkpoint
// writes only the open chunk (and chunks filled since) of the tables that
// grew, and Publish leaves exactly the files the new manifest names.
TEST(CheckpointTest, FilledChunksAreWrittenOnceAndShared) {
  const std::string dir = TempDir("ckpt_shared_chunks");
  Database db = TypedDatabase();
  AppendTypedRows(&db, 0, 70000);  // chunk 0 filled, chunk 1 open
  CheckpointStore store(RealEnv(), dir);
  EBA_ASSERT_OK(store.Init());
  EXPECT_EQ(store.CurrentSeq().status().code(), StatusCode::kNotFound);

  const uint64_t s1 = UnwrapOrDie(store.Prepare(
      db, MakeAuditState({1, 0}, db), /*tables_continue=*/false));
  ASSERT_EQ(s1, 1u);
  EBA_ASSERT_OK(store.Publish(s1));
  EXPECT_EQ(NamedChunkFiles(dir, s1),
            (std::set<std::string>{"T.0.1", "T.1.1"}));
  ExpectStoreHoldsOnly(dir, s1);
  const std::string filled = ReadBytes(dir + "/chunks/T.0.1");

  // The open chunk grows: only it is written again.
  AppendTypedRows(&db, 70000, 80000);
  const uint64_t s2 = UnwrapOrDie(store.Prepare(
      db, MakeAuditState({1, 0, 1}, db), /*tables_continue=*/true));
  ASSERT_EQ(s2, 2u);
  EBA_ASSERT_OK(store.Publish(s2));
  EXPECT_EQ(NamedChunkFiles(dir, s2),
            (std::set<std::string>{"T.0.1", "T.1.2"}));
  ExpectStoreHoldsOnly(dir, s2);

  // Nothing changed: the new manifest names the same files.
  const uint64_t s3 = UnwrapOrDie(store.Prepare(
      db, MakeAuditState({1, 0, 1}, db), /*tables_continue=*/true));
  EBA_ASSERT_OK(store.Publish(s3));
  EXPECT_EQ(NamedChunkFiles(dir, s3),
            (std::set<std::string>{"T.0.1", "T.1.2"}));
  ExpectStoreHoldsOnly(dir, s3);

  // Chunk 1 fills and chunk 2 opens.
  AppendTypedRows(&db, 80000, 140000);
  const AuditState a4 = MakeAuditState({1, 1, 1}, db);
  const uint64_t s4 =
      UnwrapOrDie(store.Prepare(db, a4, /*tables_continue=*/true));
  ASSERT_EQ(s4, 4u);
  EBA_ASSERT_OK(store.Publish(s4));
  EXPECT_EQ(NamedChunkFiles(dir, s4),
            (std::set<std::string>{"T.0.1", "T.1.4", "T.2.4"}));
  ExpectStoreHoldsOnly(dir, s4);
  EXPECT_EQ(ReadBytes(dir + "/chunks/T.0.1"), filled);

  CheckpointContents loaded = UnwrapOrDie(store.LoadNewest());
  EXPECT_EQ(loaded.seq, 4u);
  EXPECT_EQ(loaded.wal_seq, 4u);
  EXPECT_EQ(loaded.audit.explained, a4.explained);
  EXPECT_EQ(loaded.audit.audit_watermarks, a4.audit_watermarks);
  ExpectDbRowsEqual(loaded.db, db);

  // Tables that do not continue the published ones share nothing.
  const uint64_t s5 =
      UnwrapOrDie(store.Prepare(db, a4, /*tables_continue=*/false));
  EBA_ASSERT_OK(store.Publish(s5));
  EXPECT_EQ(NamedChunkFiles(dir, s5),
            (std::set<std::string>{"T.0.5", "T.1.5", "T.2.5"}));
  ExpectStoreHoldsOnly(dir, s5);
  ExpectDbRowsEqual(UnwrapOrDie(store.LoadNewest()).db, db);
}

TEST(CheckpointTest, CorruptManifestIsRejected) {
  const std::string dir = TempDir("ckpt_corrupt");
  Database db = BuildPaperToyDatabase();
  CheckpointStore store(RealEnv(), dir);
  EBA_ASSERT_OK(store.Init());
  EBA_ASSERT_OK(store.Publish(UnwrapOrDie(
      store.Prepare(db, AuditState{}, /*tables_continue=*/false))));
  const std::string manifest = dir + "/ckpt-1/ckpt.txt";
  std::string bytes = ReadBytes(manifest);
  bytes[bytes.size() / 2] ^= 0x01;
  WriteBytes(manifest, bytes);
  // CURRENT names a synced checkpoint, so a bad manifest CRC is real damage
  // — a hard error, not a silent fallback.
  EXPECT_FALSE(store.LoadNewest().ok());
}

TEST(CheckpointTest, UnpublishedCheckpointIsInvisible) {
  const std::string dir = TempDir("ckpt_unpublished");
  Database db = BuildPaperToyDatabase();
  CheckpointStore store(RealEnv(), dir);
  EBA_ASSERT_OK(store.Init());
  (void)UnwrapOrDie(
      store.Prepare(db, AuditState{}, /*tables_continue=*/false));
  // Prepared but never published: recovery sees nothing.
  EXPECT_EQ(store.CurrentSeq().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.LoadNewest().status().code(), StatusCode::kNotFound);
}

// Every column type, NULLs and dictionary entries round-trip across both
// chunk seams: the first checkpoint crosses row 65536, and the second
// rewrites the open chunk 1 (from the dictionary sizes its CHUNK line
// records) and writes chunk 2, past row 131072.
TEST(CheckpointTest, TypedNullableColumnsRoundTripAcrossChunkSeams) {
  const std::string dir = TempDir("ckpt_typed");
  Database db = TypedDatabase();
  const Table* table = db.GetTable("T").value();
  CheckpointStore store(RealEnv(), dir);
  EBA_ASSERT_OK(store.Init());
  AppendTypedRows(&db, 0, 70000);  // a whole 64k-row chunk and part of one
  EBA_ASSERT_OK(store.Publish(UnwrapOrDie(
      store.Prepare(db, MakeAuditState({}, db), /*tables_continue=*/false))));
  AppendTypedRows(&db, 70000, 140000);  // crosses the 131072-row seam
  EBA_ASSERT_OK(store.Publish(UnwrapOrDie(
      store.Prepare(db, MakeAuditState({}, db), /*tables_continue=*/true))));
  EXPECT_EQ(NamedChunkFiles(dir, 2),
            (std::set<std::string>{"T.0.1", "T.1.2", "T.2.2"}));

  const CheckpointContents loaded = UnwrapOrDie(store.LoadNewest());
  ExpectDbRowsEqual(loaded.db, db);
  const Table* got = loaded.db.GetTable("T").value();
  for (size_t c = 0; c < table->num_columns(); ++c) {
    EXPECT_EQ(got->column(c).NullCount(), table->column(c).NullCount()) << c;
    EXPECT_EQ(got->column(c).DictionarySize(),
              table->column(c).DictionarySize())
        << c;
  }
  EXPECT_EQ(got->column(3).FindStringCode("tag100"),
            table->column(3).FindStringCode("tag100"));
}

// Every byte of a checkpoint data file is checked: a bit flip in a shared
// filled-chunk file, in an open-chunk file, in the catalog or in the
// explained file, and every proper prefix of any of them, makes LoadNewest
// fail — never crash, never return rows. The small files are probed at
// every byte; the half-megabyte filled chunk at its first and last 64 bytes
// and every 4093rd byte between.
TEST(CheckpointTest, DataFileBitFlipsAndPrefixesAreRejected) {
  const std::string dir = TempDir("ckpt_data_corrupt");
  Database db = BuildPaperToyDatabase();
  // One filled chunk. Tables load in name order, so a probe of a Log file
  // fails before this one's half megabyte is read.
  EBA_ASSERT_OK(db.CreateTable(
      TableSchema("Series", {ColumnDef{"n", DataType::kInt64, "", false}})));
  Table* series = db.GetTable("Series").value();
  for (int64_t r = 0; r < static_cast<int64_t>(kColumnChunkRows); ++r) {
    series->AppendValidatedRow({Value::Int64(r)});
  }
  CheckpointStore store(RealEnv(), dir);
  EBA_ASSERT_OK(store.Init());
  EBA_ASSERT_OK(store.Publish(UnwrapOrDie(store.Prepare(
      db, MakeAuditState({1, 0}, db), /*tables_continue=*/false))));
  // The open chunk rewritten next carries a new dictionary entry and a NULL.
  Table* log = db.GetTable("Log").value();
  EBA_ASSERT_OK(log->AppendRow({Value::Int64(3), Value::Timestamp(1000),
                                Value::Int64(testing_util::kMike),
                                Value::Int64(testing_util::kAlice),
                                Value::String("printed record")}));
  EBA_ASSERT_OK(log->AppendRow({Value::Int64(4), Value::Timestamp(1001),
                                Value::Int64(testing_util::kMike),
                                Value::Int64(testing_util::kAlice),
                                Value::Null()}));
  EBA_ASSERT_OK(store.Publish(UnwrapOrDie(store.Prepare(
      db, MakeAuditState({1, 0}, db), /*tables_continue=*/true))));
  ASSERT_EQ(NamedChunkFiles(dir, 2),
            (std::set<std::string>{"Appointments.0.1", "Doctor_Info.0.1",
                                   "Log.0.2", "Series.0.1"}));
  ExpectDbRowsEqual(UnwrapOrDie(store.LoadNewest()).db, db);

  for (const std::string& path :
       {dir + "/chunks/Series.0.1", dir + "/chunks/Log.0.2",
        dir + "/ckpt-2/catalog", dir + "/ckpt-2/explained"}) {
    const std::string original = ReadBytes(path);
    ASSERT_GT(original.size(), 0u) << path;
    const auto probed = [&](size_t off) {
      return original.size() < 4096 || off < 64 ||
             off + 64 >= original.size() || off % 4093 == 0;
    };
    for (size_t off = 0; off < original.size(); ++off) {
      if (!probed(off)) continue;
      std::string bytes = original;
      bytes[off] = static_cast<char>(bytes[off] ^ (1 << (off % 8)));
      WriteBytes(path, bytes);
      ASSERT_FALSE(store.LoadNewest().ok()) << path << " flip at byte " << off;
    }
    for (size_t cut = 0; cut < original.size(); ++cut) {
      if (!probed(cut)) continue;
      WriteBytes(path, original.substr(0, cut));
      ASSERT_FALSE(store.LoadNewest().ok()) << path << " cut at byte " << cut;
    }
    WriteBytes(path, original);
  }
  ExpectDbRowsEqual(UnwrapOrDie(store.LoadNewest()).db, db);
}

TEST(CheckpointTest, VersionOneStoreIsRejectedByName) {
  const std::string dir = TempDir("ckpt_v1");
  Database db = BuildPaperToyDatabase();
  CheckpointStore store(RealEnv(), dir);
  EBA_ASSERT_OK(store.Init());
  EBA_ASSERT_OK(store.Publish(UnwrapOrDie(
      store.Prepare(db, AuditState{}, /*tables_continue=*/false))));
  // Re-stamp the manifest as each older format — the CSV-era v1, the v2
  // whose explained set was a manifest line, and the v3 whose incremental
  // checkpoints chained through BASE lines — with a valid CRC.
  const std::string manifest = dir + "/ckpt-1/ckpt.txt";
  const std::string text = ReadBytes(manifest);
  const std::string body = text.substr(0, text.rfind("CRC "));
  const std::string v4 = "# eba checkpoint v4";
  ASSERT_EQ(body.rfind(v4, 0), 0u);
  for (const std::string version : {"1", "2", "3"}) {
    std::string old_body = body;
    old_body.replace(0, v4.size(), "# eba checkpoint v" + version);
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%x", Crc32(old_body));
    WriteBytes(manifest, old_body + "CRC " + crc + "\n");

    Database recovered_db;
    DurabilityOptions opts;
    opts.dir = dir;
    const Status s =
        StreamingAuditor::RecoverFrom(&recovered_db, "Log", opts).status();
    ASSERT_FALSE(s.ok()) << version;
    EXPECT_NE(s.message().find("format v" + version), std::string::npos)
        << s.ToString();
  }
}

// The explained file's records pass their CRCs here, so only the content
// checks can reject them: a record of another type, a flag other than 0 or
// 1, records out of row order, and flags that stop short of AUDITED rows
// or run past them.
TEST(CheckpointTest, ExplainedRecordContentIsChecked) {
  const std::string dir = TempDir("ckpt_explained_content");
  Database db = BuildPaperToyDatabase();
  CheckpointStore store(RealEnv(), dir);
  EBA_ASSERT_OK(store.Init());
  EBA_ASSERT_OK(store.Publish(UnwrapOrDie(store.Prepare(
      db, MakeAuditState({1, 0}, db), /*tables_continue=*/false))));
  const std::string path = dir + "/ckpt-1/explained";
  // One record: type | u64 first_row | u32 rows | flags.
  auto record = [](uint8_t type, uint64_t first_row, std::string flags) {
    std::string prefix;
    PutU64(&prefix, first_row);
    PutU32(&prefix, static_cast<uint32_t>(flags.size()));
    std::string out;
    AppendFrame(&out, type, {prefix, flags});
    return out;
  };
  const std::string one("\1", 1), zero("\0", 1);
  WriteBytes(path, record(4, 0, one + zero));
  EXPECT_EQ(UnwrapOrDie(store.LoadNewest()).audit.explained,
            (std::vector<uint8_t>{1, 0}));
  WriteBytes(path, record(4, 0, one) + record(4, 1, zero));
  EXPECT_EQ(UnwrapOrDie(store.LoadNewest()).audit.explained,
            (std::vector<uint8_t>{1, 0}));
  for (const std::string& bad :
       {record(3, 0, one + zero), record(4, 0, one + std::string("\2", 1)),
        record(4, 1, zero) + record(4, 0, one), record(4, 0, one),
        record(4, 0, one + zero + one), std::string()}) {
    WriteBytes(path, bad);
    EXPECT_FALSE(store.LoadNewest().ok()) << bad.size();
  }
}

// A checkpoint's explained flags cover the log rows it audited, so a store
// whose AUDITED exceeds the rows of the log it recovers is damage.
TEST(CheckpointTest, AuditedPastTheRecoveredLogIsRejected) {
  const std::string dir = TempDir("ckpt_audited_past_log");
  Database db = BuildPaperToyDatabase();  // a two-row log
  CheckpointStore store(RealEnv(), dir);
  EBA_ASSERT_OK(store.Init());
  const uint64_t seq = UnwrapOrDie(store.Prepare(
      db, MakeAuditState({1, 0, 1}, db), /*tables_continue=*/false));
  EBA_ASSERT_OK(store.Publish(seq));
  WriteBytes(store.WalPath(seq), "");  // the paired, empty WAL
  EXPECT_EQ(UnwrapOrDie(store.LoadNewest()).audit.explained,
            (std::vector<uint8_t>{1, 0, 1}));

  Database recovered_db;
  DurabilityOptions opts;
  opts.dir = dir;
  const Status s =
      StreamingAuditor::RecoverFrom(&recovered_db, "Log", opts).status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("audited 3 rows"), std::string::npos)
      << s.ToString();
}

// ---------------------------------------------------------------------------
// Crash-safe SaveDatabase

TEST(SaveDatabaseTest, KillAtEveryWriteOpIsAtomic) {
  const std::string root = TempDir("save_atomic");
  const std::string dir = root + "/db";
  Database old_db = BuildPaperToyDatabase();
  Database new_db = BuildPaperToyDatabase();
  EBA_ASSERT_OK(new_db.GetTable("Appointments")
                    .value()
                    ->AppendRow({Value::Int64(99), Value::Timestamp(5),
                                 Value::Int64(98)}));
  const size_t old_rows = 2, new_rows = 3;

  // Dry run to count the write boundaries of one save-over-save.
  FaultInjectingEnv fenv;
  EBA_ASSERT_OK(SaveDatabase(old_db, dir, RealEnv()));
  fenv.DisarmKill();
  EBA_ASSERT_OK(SaveDatabase(new_db, dir, &fenv));
  const uint64_t total_ops = fenv.write_ops();
  ASSERT_GT(total_ops, 5u);

  for (uint64_t k = 0; k < total_ops; ++k) {
    EBA_ASSERT_OK(RealEnv()->RemoveAll(root));
    EBA_ASSERT_OK(RealEnv()->CreateDirs(root));
    EBA_ASSERT_OK(SaveDatabase(old_db, dir, RealEnv()));
    fenv.ScheduleKill(k);
    ASSERT_FALSE(SaveDatabase(new_db, dir, &fenv).ok()) << "kill op " << k;
    ASSERT_TRUE(fenv.dead());

    // After the crash, `dir` must load as exactly the old or exactly the
    // new database — never a torn mix. The only other legal observation is
    // the instant between the two renames, where the complete old image
    // still exists under the `.old` name.
    StatusOr<Database> loaded = LoadDatabase(dir);
    if (!loaded.ok()) {
      ASSERT_EQ(loaded.status().code(), StatusCode::kNotFound)
          << "kill op " << k << ": " << loaded.status().ToString();
      loaded = LoadDatabase(dir + ".old");
      ASSERT_TRUE(loaded.ok())
          << "kill op " << k << ": neither db nor db.old loadable";
    }
    const size_t rows =
        loaded.value().GetTable("Appointments").value()->num_rows();
    EXPECT_TRUE(rows == old_rows || rows == new_rows)
        << "kill op " << k << ": torn save visible (" << rows << " rows)";
  }
}

// ---------------------------------------------------------------------------
// Kill -9 at every write boundary of a durable streaming-audit schedule

struct DurFixture {
  CareWebData data;
  std::vector<Row> backlog;  // non-seeded Log rows, in order
  std::vector<ExplanationTemplate> templates;
};

DurFixture MakeDurFixture() {
  DurFixture f;
  f.data = UnwrapOrDie(GenerateCareWeb(CareWebConfig::Tiny()));
  const Table* log = UnwrapOrDie(f.data.db.GetTable("Log"));
  AccessLog source = UnwrapOrDie(AccessLog::Wrap(log));
  (void)UnwrapOrDie(AddLogSlice(&f.data.db, "Log", "LogStream", 1, 2,
                                /*first_only=*/false));
  std::vector<size_t> seeded = source.RowsInDayRange(1, 2);
  std::sort(seeded.begin(), seeded.end());
  for (size_t r = 0; r < log->num_rows(); ++r) {
    if (!std::binary_search(seeded.begin(), seeded.end(), r)) {
      f.backlog.push_back(log->GetRow(r));
    }
  }
  f.templates = UnwrapOrDie(TemplatesHandcraftedDirect(f.data.db, true));
  return f;
}

/// A fixed durable serving schedule: appends (log + foreign), audits, and an
/// explicit checkpoint. Deterministic, so the dry run and every kill run
/// issue the identical write-op sequence up to the kill point. Reports rows
/// whose append was acknowledged (returned OK) — those are committed to the
/// WAL and recovery must preserve them.
Status RunDurableSchedule(StreamingAuditor* auditor, const DurFixture& f,
                          size_t* acked_log_rows) {
  const StreamingOptions options{};
  size_t pos = 0;
  auto next_batch = [&](size_t n) {
    std::vector<Row> rows;
    for (; n > 0 && pos < f.backlog.size(); --n) {
      rows.push_back(f.backlog[pos++]);
    }
    return rows;
  };
  auto append_log = [&](size_t n) -> Status {
    const std::vector<Row> rows = next_batch(n);
    EBA_RETURN_IF_ERROR(auditor->AppendAccessBatch(rows));
    *acked_log_rows += rows.size();
    return Status::OK();
  };
  auto append_foreign = [&](const std::string& table) -> Status {
    // Re-append an existing row: trivially valid and joinable.
    const Table* t = UnwrapOrDie(
        static_cast<const Database&>(f.data.db).GetTable(table));
    return auditor->AppendRows(table, {t->GetRow(0)});
  };
  auto audit = [&]() -> Status {
    return auditor->ExplainNew(options).status();
  };

  EBA_RETURN_IF_ERROR(append_log(4));
  EBA_RETURN_IF_ERROR(audit());
  EBA_RETURN_IF_ERROR(append_log(4));
  EBA_RETURN_IF_ERROR(append_foreign("Appointments"));
  EBA_RETURN_IF_ERROR(audit());
  EBA_RETURN_IF_ERROR(auditor->Checkpoint());
  EBA_RETURN_IF_ERROR(append_log(4));
  EBA_RETURN_IF_ERROR(append_foreign("Visits"));
  EBA_RETURN_IF_ERROR(audit());
  // Unaudited tail: committed to the WAL but never audited before the
  // crash — recovery must replay it and the converging audit must cover it.
  EBA_RETURN_IF_ERROR(append_log(4));
  return Status::OK();
}

/// Differential acceptance check: every audited access of the recovered
/// auditor classifies identically to a fresh full ExplainAll on a cloned
/// copy of the recovered database.
void CheckRecoveredAgainstOracle(const Database& db,
                                 const std::vector<ExplanationTemplate>& tmpls,
                                 const StreamingAuditor& auditor,
                                 uint64_t kill_op) {
  Database clone = CloneDatabase(db);
  ExplanationEngine oracle =
      UnwrapOrDie(ExplanationEngine::Create(&clone, "LogStream"));
  for (const auto& tmpl : tmpls) EBA_ASSERT_OK(oracle.AddTemplate(tmpl));
  const ExplanationReport full = UnwrapOrDie(oracle.ExplainAll());
  std::vector<int64_t> full_explained = full.explained_lids;
  std::sort(full_explained.begin(), full_explained.end());

  const Table* stream =
      UnwrapOrDie(static_cast<const Database&>(db).GetTable("LogStream"));
  AccessLog log = UnwrapOrDie(AccessLog::Wrap(stream));
  ASSERT_EQ(auditor.audited_rows(), stream->num_rows())
      << "kill op " << kill_op << ": converging audit left rows unaudited";
  const std::unordered_set<int64_t> streamed_explained =
      auditor.explained_lids();
  for (size_t r = 0; r < stream->num_rows(); ++r) {
    const int64_t lid = log.Get(r).lid;
    const bool streamed = streamed_explained.count(lid) > 0;
    const bool expected = std::binary_search(full_explained.begin(),
                                             full_explained.end(), lid);
    ASSERT_EQ(streamed, expected)
        << "kill op " << kill_op << " row " << r << " lid " << lid
        << ": recovered auditor says "
        << (streamed ? "explained" : "unexplained")
        << ", fresh ExplainAll on a clone says the opposite";
  }
}

TEST(DurabilityTest, KillAtEveryWriteOpRecoversAndConverges) {
  const DurFixture master = MakeDurFixture();
  const std::string dir = TempDir("kill_recover");
  DurabilityOptions opts;
  opts.dir = dir;
  opts.sync = WalSync::kNone;  // the fault model: process kill, not power loss
  opts.checkpoint_after_wal_bytes = 512;  // force auto-checkpoints mid-run

  // Dry run: count the write-class operations of the whole schedule.
  FaultInjectingEnv fenv;
  uint64_t total_ops = 0;
  {
    EBA_ASSERT_OK(RealEnv()->RemoveAll(dir));
    Database db = CloneDatabase(master.data.db);
    StreamingAuditor auditor =
        UnwrapOrDie(StreamingAuditor::Create(&db, "LogStream"));
    for (const auto& t : master.templates) {
      EBA_ASSERT_OK(auditor.AddTemplate(t));
    }
    fenv.DisarmKill();
    DurabilityOptions dry = opts;
    dry.env = &fenv;
    EBA_ASSERT_OK(auditor.EnableDurability(dry));
    size_t acked = 0;
    EBA_ASSERT_OK(RunDurableSchedule(&auditor, master, &acked));
    total_ops = fenv.write_ops();
    ASSERT_EQ(acked, 16u);
  }
  ASSERT_GT(total_ops, 20u) << "schedule exercises too few write boundaries";

  const size_t seeded_rows = UnwrapOrDie(static_cast<const Database&>(
                                             master.data.db)
                                             .GetTable("LogStream"))
                                 ->num_rows();
  bool any_recovered = false, any_replayed = false, any_truncated = false;
  for (uint64_t k = 0; k < total_ops; ++k) {
    EBA_ASSERT_OK(RealEnv()->RemoveAll(dir));
    size_t acked = 0;
    {
      Database db = CloneDatabase(master.data.db);
      StreamingAuditor auditor =
          UnwrapOrDie(StreamingAuditor::Create(&db, "LogStream"));
      for (const auto& t : master.templates) {
        EBA_ASSERT_OK(auditor.AddTemplate(t));
      }
      fenv.ScheduleKill(k);
      DurabilityOptions faulty = opts;
      faulty.env = &fenv;
      Status s = auditor.EnableDurability(faulty);
      if (s.ok()) s = RunDurableSchedule(&auditor, master, &acked);
      ASSERT_FALSE(s.ok()) << "kill op " << k << " never fired";
      ASSERT_TRUE(fenv.dead());
    }  // the process "dies": in-memory auditor and database are gone

    // Restart: recover from disk with the real filesystem.
    Database db = CloneDatabase(master.data.db);
    DurabilityOptions ropts = opts;
    ropts.env = nullptr;
    RecoveryStats stats;
    EBA_ASSERT_OK_AND_ASSIGN(
        StreamingAuditor recovered,
        StreamingAuditor::RecoverFrom(&db, "LogStream", ropts, &stats));
    any_recovered |= stats.recovered;
    any_replayed |= stats.wal_records_replayed > 0;
    any_truncated |= stats.wal_bytes_truncated > 0;

    // Every acknowledged append was WAL-committed before it returned, so it
    // must survive the crash (checkpointed or replayed).
    if (stats.recovered) {
      const Table* stream = UnwrapOrDie(
          static_cast<const Database&>(db).GetTable("LogStream"));
      EXPECT_GE(stream->num_rows(), seeded_rows + acked) << "kill op " << k;
    }

    for (const auto& t : master.templates) {
      EBA_ASSERT_OK(recovered.AddTemplate(t));
    }
    (void)UnwrapOrDie(recovered.ExplainNew());
    CheckRecoveredAgainstOracle(db, master.templates, recovered, k);
    if (::testing::Test::HasFatalFailure()) return;

    // The recovered auditor is live: it can keep appending and auditing
    // durably.
    EBA_ASSERT_OK(recovered.AppendAccessBatch({master.backlog.back()}));
    (void)UnwrapOrDie(recovered.ExplainNew());
  }
  // The sweep must have crossed all three recovery regimes somewhere.
  EXPECT_TRUE(any_recovered);
  EXPECT_TRUE(any_replayed);
  EXPECT_TRUE(any_truncated);
}

TEST(DurabilityTest, FreshStartThenRestartResumesFromCheckpoint) {
  const DurFixture master = MakeDurFixture();
  const std::string dir = TempDir("restart_resume");
  EBA_ASSERT_OK(RealEnv()->RemoveAll(dir));
  DurabilityOptions opts;
  opts.dir = dir;
  opts.sync = WalSync::kBatch;
  opts.checkpoint_after_wal_bytes = 0;  // manual checkpoints only

  size_t acked = 0;
  {
    Database db = CloneDatabase(master.data.db);
    StreamingAuditor auditor =
        UnwrapOrDie(StreamingAuditor::Create(&db, "LogStream"));
    for (const auto& t : master.templates) {
      EBA_ASSERT_OK(auditor.AddTemplate(t));
    }
    RecoveryStats stats;
    // No checkpoint yet: RecoverFrom must report a fresh start.
    EBA_ASSERT_OK_AND_ASSIGN(
        StreamingAuditor fresh,
        StreamingAuditor::RecoverFrom(&db, "LogStream", opts, &stats));
    EXPECT_FALSE(stats.recovered);
    EXPECT_TRUE(fresh.durable());
    for (const auto& t : master.templates) {
      EBA_ASSERT_OK(fresh.AddTemplate(t));
    }
    size_t pos = 0;
    auto batch = [&](size_t n) {
      std::vector<Row> rows;
      for (; n > 0 && pos < master.backlog.size(); --n) {
        rows.push_back(master.backlog[pos++]);
      }
      return rows;
    };
    EBA_ASSERT_OK(fresh.AppendAccessBatch(batch(6)));
    (void)UnwrapOrDie(fresh.ExplainNew());
    EBA_ASSERT_OK(fresh.Checkpoint());
    EBA_ASSERT_OK(fresh.AppendAccessBatch(batch(6)));  // WAL-only tail
    acked = pos;
  }

  Database db = CloneDatabase(master.data.db);
  RecoveryStats stats;
  EBA_ASSERT_OK_AND_ASSIGN(
      StreamingAuditor recovered,
      StreamingAuditor::RecoverFrom(&db, "LogStream", opts, &stats));
  EXPECT_TRUE(stats.recovered);
  EXPECT_GT(stats.wal_rows_replayed, 0u);
  const size_t seeded_rows = UnwrapOrDie(static_cast<const Database&>(
                                             master.data.db)
                                             .GetTable("LogStream"))
                                 ->num_rows();
  const Table* stream =
      UnwrapOrDie(static_cast<const Database&>(db).GetTable("LogStream"));
  EXPECT_EQ(stream->num_rows(), seeded_rows + acked);
  for (const auto& t : master.templates) {
    EBA_ASSERT_OK(recovered.AddTemplate(t));
  }
  (void)UnwrapOrDie(recovered.ExplainNew());
  CheckRecoveredAgainstOracle(db, master.templates, recovered, ~uint64_t{0});
}

// Regression: every crash/recover cycle opens a fresh WAL above the highest
// sequence it replayed, and the next checkpoint must allocate *past* that
// WAL. The pre-fix code seeded the replay watermark from the checkpoint's
// own sequence and let Prepare reuse CurrentSeq()+1, so after two recovery
// generations a checkpoint could pair itself with a stale recovery WAL —
// whose already-checkpointed records the next recovery replayed again,
// duplicating rows. Exact row-count equality (not >=) is the assertion that
// catches it.
TEST(DurabilityTest, KillRecoverCheckpointKillKeepsRowCountExact) {
  const DurFixture master = MakeDurFixture();
  const std::string dir = TempDir("recover_ckpt_seq");
  DurabilityOptions opts;
  opts.dir = dir;
  opts.sync = WalSync::kNone;  // fault model: process kill
  opts.checkpoint_after_wal_bytes = 0;  // manual checkpoints only

  size_t pos = 0;
  auto batch = [&](size_t n) {
    std::vector<Row> rows;
    for (; n > 0 && pos < master.backlog.size(); --n) {
      rows.push_back(master.backlog[pos++]);
    }
    return rows;
  };

  // Generation 1: fresh start (checkpoint + first WAL), one acked batch,
  // then the process "dies" (auditor dropped without checkpointing).
  {
    Database db = CloneDatabase(master.data.db);
    EBA_ASSERT_OK_AND_ASSIGN(
        StreamingAuditor auditor,
        StreamingAuditor::RecoverFrom(&db, "LogStream", opts));
    EBA_ASSERT_OK(auditor.AppendAccessBatch(batch(4)));
  }
  // Generation 2: recovery replays the first WAL and opens a fresh one;
  // another acked batch lands only in that recovery WAL. Die again.
  {
    Database db = CloneDatabase(master.data.db);
    EBA_ASSERT_OK_AND_ASSIGN(
        StreamingAuditor auditor,
        StreamingAuditor::RecoverFrom(&db, "LogStream", opts));
    EBA_ASSERT_OK(auditor.AppendAccessBatch(batch(4)));
  }
  // Generation 3: two WALs to replay. The checkpoint published here must
  // not collide with any surviving recovery WAL; the batch after it is the
  // live tail. Die again.
  {
    Database db = CloneDatabase(master.data.db);
    EBA_ASSERT_OK_AND_ASSIGN(
        StreamingAuditor auditor,
        StreamingAuditor::RecoverFrom(&db, "LogStream", opts));
    EBA_ASSERT_OK(auditor.Checkpoint());
    EBA_ASSERT_OK(auditor.AppendAccessBatch(batch(4)));
  }

  // Final recovery: every acknowledged row exactly once — a duplicate from
  // a stale WAL paired with the generation-3 checkpoint shows up here.
  Database db = CloneDatabase(master.data.db);
  RecoveryStats stats;
  EBA_ASSERT_OK_AND_ASSIGN(
      StreamingAuditor recovered,
      StreamingAuditor::RecoverFrom(&db, "LogStream", opts, &stats));
  EXPECT_TRUE(stats.recovered);
  const size_t seeded_rows = UnwrapOrDie(static_cast<const Database&>(
                                             master.data.db)
                                             .GetTable("LogStream"))
                                 ->num_rows();
  const Table* stream =
      UnwrapOrDie(static_cast<const Database&>(db).GetTable("LogStream"));
  EXPECT_EQ(stream->num_rows(), seeded_rows + pos);
  for (const auto& t : master.templates) {
    EBA_ASSERT_OK(recovered.AddTemplate(t));
  }
  (void)UnwrapOrDie(recovered.ExplainNew());
  CheckRecoveredAgainstOracle(db, master.templates, recovered, ~uint64_t{0});
}

// Publish keeps only what recovery reads: ckpt-<seq>, the chunk files its
// manifest names, and the WAL files from its WALSEQ on. The fresh start's
// checkpoint and WAL, and the chunk files the second checkpoint wrote
// again, are gone.
TEST(DurabilityTest, CheckpointKeepsOnlyTheFilesItNames) {
  const DurFixture master = MakeDurFixture();
  const std::string dir = TempDir("wal_gc");
  DurabilityOptions opts;
  opts.dir = dir;
  opts.sync = WalSync::kNone;
  opts.checkpoint_after_wal_bytes = 0;  // manual checkpoints only

  size_t pos = 0;
  auto batch = [&](size_t n) {
    std::vector<Row> rows;
    for (; n > 0 && pos < master.backlog.size(); --n) {
      rows.push_back(master.backlog[pos++]);
    }
    return rows;
  };
  const CheckpointStore store(RealEnv(), dir);
  {
    // Fresh start: the first checkpoint and its WAL.
    Database db = CloneDatabase(master.data.db);
    EBA_ASSERT_OK_AND_ASSIGN(
        StreamingAuditor auditor,
        StreamingAuditor::RecoverFrom(&db, "LogStream", opts));
    for (const auto& t : master.templates) {
      EBA_ASSERT_OK(auditor.AddTemplate(t));
    }
    const uint64_t first = UnwrapOrDie(store.CurrentSeq());
    ExpectStoreHoldsOnly(dir, first);
    const std::set<std::string> first_named = NamedChunkFiles(dir, first);
    EBA_ASSERT_OK(auditor.AppendAccessBatch(batch(4)));
    (void)UnwrapOrDie(auditor.ExplainNew());
    EBA_ASSERT_OK(auditor.Checkpoint());
    const uint64_t seq = UnwrapOrDie(store.CurrentSeq());
    ExpectStoreHoldsOnly(dir, seq);
    EXPECT_EQ(UnwrapOrDie(store.ListWalSeqs()), (std::vector<uint64_t>{seq}));
    // Only the grown log's chunk was written again.
    const std::set<std::string> named = NamedChunkFiles(dir, seq);
    for (const std::string& file : first_named) {
      EXPECT_EQ(named.count(file), file.rfind("LogStream.", 0) == 0 ? 0u : 1u)
          << file;
    }
    EXPECT_EQ(named.count("LogStream.0." + std::to_string(seq)), 1u);
    EBA_ASSERT_OK(auditor.AppendAccessBatch(batch(4)));  // WAL-only tail
  }

  Database db = CloneDatabase(master.data.db);
  RecoveryStats stats;
  EBA_ASSERT_OK_AND_ASSIGN(
      StreamingAuditor recovered,
      StreamingAuditor::RecoverFrom(&db, "LogStream", opts, &stats));
  EXPECT_TRUE(stats.recovered);
  EXPECT_EQ(stats.wal_files_replayed, 1u);
  const size_t seeded_rows = UnwrapOrDie(static_cast<const Database&>(
                                             master.data.db)
                                             .GetTable("LogStream"))
                                 ->num_rows();
  const Table* stream =
      UnwrapOrDie(static_cast<const Database&>(db).GetTable("LogStream"));
  EXPECT_EQ(stream->num_rows(), seeded_rows + pos);
  for (const auto& t : master.templates) {
    EBA_ASSERT_OK(recovered.AddTemplate(t));
  }
  (void)UnwrapOrDie(recovered.ExplainNew());
  CheckRecoveredAgainstOracle(db, master.templates, recovered, ~uint64_t{0});
}

// A crash between a checkpoint's chunk writes and its Publish leaves
// orphans: the unpublished ckpt-<seq> and the chunk files it wrote. CURRENT's
// checkpoint still loads, untouched, and the next Publish removes them.
TEST(CheckpointTest, CrashBeforePublishLeavesOrphansTheNextPublishRemoves) {
  const std::string dir = TempDir("ckpt_orphans");
  Database db = BuildPaperToyDatabase();
  CheckpointStore store(RealEnv(), dir);
  EBA_ASSERT_OK(store.Init());
  EBA_ASSERT_OK(store.Publish(UnwrapOrDie(store.Prepare(
      db, MakeAuditState({1, 0}, db), /*tables_continue=*/false))));
  const Database published = CloneDatabase(db);

  Table* log = db.GetTable("Log").value();
  EBA_ASSERT_OK(log->AppendRow({Value::Int64(3), Value::Timestamp(1000),
                                Value::Int64(testing_util::kMike),
                                Value::Int64(testing_util::kAlice),
                                Value::String("printed record")}));
  // Prepared, then the process dies before Publish.
  ASSERT_EQ(UnwrapOrDie(store.Prepare(db, MakeAuditState({1, 0, 1}, db),
                                      /*tables_continue=*/true)),
            2u);
  EXPECT_TRUE(RealEnv()->FileExists(dir + "/ckpt-2"));
  EXPECT_TRUE(RealEnv()->FileExists(dir + "/chunks/Log.0.2"));

  const CheckpointContents loaded = UnwrapOrDie(store.LoadNewest());
  EXPECT_EQ(loaded.seq, 1u);
  EXPECT_EQ(loaded.audit.explained, (std::vector<uint8_t>{1, 0}));
  ExpectDbRowsEqual(loaded.db, published);

  // Recovery opens its WAL past the orphan's sequence, so the next
  // checkpoint is 3 and writes none of the orphans' names again.
  const uint64_t seq = UnwrapOrDie(store.Prepare(
      db, MakeAuditState({1, 0, 1}, db), /*tables_continue=*/true,
      /*min_seq=*/3));
  ASSERT_EQ(seq, 3u);
  EBA_ASSERT_OK(store.Publish(seq));
  ExpectStoreHoldsOnly(dir, seq);
  EXPECT_FALSE(RealEnv()->FileExists(dir + "/chunks/Log.0.2"));
  ExpectDbRowsEqual(UnwrapOrDie(store.LoadNewest()).db, db);
}

// A catalog change is the one change that shares no chunk file: a
// same-name replacement that grew looks, by row counts alone, like rows
// appended to the published table, and naming its filled chunk would put
// the dropped table's rows back. Every chunk after it is written again.
TEST(DurabilityTest, ReplacedTableSharesNoChunkFile) {
  const std::string dir = TempDir("replaced_table");
  DurabilityOptions opts;
  opts.dir = dir;
  opts.sync = WalSync::kNone;
  opts.checkpoint_after_wal_bytes = 0;  // manual checkpoints only

  // "Big" fills a chunk, so a checkpoint that wrongly shared its files
  // would name the dropped table's rows.
  Database db = BuildPaperToyDatabase();
  const TableSchema big_schema(
      "Big", {ColumnDef{"n", DataType::kInt64, "", false}});
  Table big(big_schema);
  for (int64_t r = 0; r < static_cast<int64_t>(kColumnChunkRows) + 10; ++r) {
    big.AppendValidatedRow({Value::Int64(r)});
  }
  EBA_ASSERT_OK(db.AddTable(std::move(big)));
  EBA_ASSERT_OK_AND_ASSIGN(StreamingAuditor auditor,
                           StreamingAuditor::RecoverFrom(&db, "Log", opts));
  const CheckpointStore store(RealEnv(), dir);
  const uint64_t first = UnwrapOrDie(store.CurrentSeq());
  EXPECT_EQ(NamedChunkFiles(dir, first).count("Big.0." + std::to_string(first)),
            1u);

  // The replacement holds more rows than Big, and its first rows differ.
  Table replacement(big_schema);
  for (int64_t r = 0; r < static_cast<int64_t>(kColumnChunkRows) + 20; ++r) {
    replacement.AppendValidatedRow({Value::Int64(-r)});
  }
  testing_util::ReplaceTable(&db, std::move(replacement));

  EBA_ASSERT_OK(auditor.Checkpoint());
  const uint64_t seq = UnwrapOrDie(store.CurrentSeq());
  for (const std::string& file : NamedChunkFiles(dir, seq)) {
    EXPECT_EQ(file.substr(file.rfind('.') + 1), std::to_string(seq)) << file;
  }
  ExpectStoreHoldsOnly(dir, seq);

  Database recovered_db;
  RecoveryStats stats;
  EBA_ASSERT_OK_AND_ASSIGN(
      StreamingAuditor recovered,
      StreamingAuditor::RecoverFrom(&recovered_db, "Log", opts, &stats));
  EXPECT_EQ(stats.checkpoint_seq, seq);
  ExpectDbRowsEqual(recovered_db, db);
}

// Join metadata (foreign keys, admin relationships, self-join attributes,
// mapping marks) does not move the catalog generation, so only a
// checkpoint that always writes the catalog record carries metadata
// declared after durability was enabled.
TEST(DurabilityTest, JoinMetadataSurvivesRecovery) {
  const std::string dir = TempDir("join_metadata");
  DurabilityOptions opts;
  opts.dir = dir;
  opts.checkpoint_after_wal_bytes = 0;  // manual checkpoints only
  Database db = BuildPaperToyDatabase();
  EBA_ASSERT_OK(db.CreateTable(TableSchema(
      "Doctors", {ColumnDef{"Doctor", DataType::kInt64, "user", true}})));
  EBA_ASSERT_OK_AND_ASSIGN(StreamingAuditor auditor,
                           StreamingAuditor::RecoverFrom(&db, "Log", opts));

  EBA_ASSERT_OK(db.AddForeignKey(AttrId{"Appointments", "Doctor"},
                                 AttrId{"Doctors", "Doctor"}));
  EBA_ASSERT_OK(db.AddAdminRelationship(AttrId{"Appointments", "Doctor"},
                                        AttrId{"Doctor_Info", "Doctor"}));
  EBA_ASSERT_OK(db.AllowSelfJoin(AttrId{"Appointments", "Patient"}));
  EBA_ASSERT_OK(db.MarkMappingTable("Doctor_Info"));
  EBA_ASSERT_OK(auditor.Checkpoint());

  Database recovered_db;
  EBA_ASSERT_OK_AND_ASSIGN(
      StreamingAuditor recovered,
      StreamingAuditor::RecoverFrom(&recovered_db, "Log", opts));
  ASSERT_EQ(recovered_db.foreign_keys().size(), 1u);
  EXPECT_EQ(recovered_db.foreign_keys()[0].from,
            (AttrId{"Appointments", "Doctor"}));
  EXPECT_EQ(recovered_db.foreign_keys()[0].to, (AttrId{"Doctors", "Doctor"}));
  ASSERT_EQ(recovered_db.admin_relationships().size(), 1u);
  EXPECT_EQ(recovered_db.admin_relationships()[0].b,
            (AttrId{"Doctor_Info", "Doctor"}));
  EXPECT_EQ(recovered_db.self_join_attrs(), db.self_join_attrs());
  EXPECT_EQ(recovered_db.mapping_tables(), db.mapping_tables());
  ExpectDbRowsEqual(recovered_db, db);
}

// Regression: recovery must fail loudly when a mid-chain WAL file is gone —
// its records were durably committed and acknowledged; replaying around the
// hole would silently lose them. The pre-fix code replayed whatever files
// sorted into order.
TEST(DurabilityTest, RecoveryFailsOnMissingMidChainWalFile) {
  const DurFixture master = MakeDurFixture();
  const std::string dir = TempDir("missing_midchain_wal");
  DurabilityOptions opts;
  opts.dir = dir;
  opts.sync = WalSync::kNone;
  opts.checkpoint_after_wal_bytes = 0;

  size_t pos = 0;
  auto batch = [&](size_t n) {
    std::vector<Row> rows;
    for (; n > 0 && pos < master.backlog.size(); --n) {
      rows.push_back(master.backlog[pos++]);
    }
    return rows;
  };
  // Three kill/recover generations, each acking one batch into its own WAL:
  // the chain is wal-1, wal-2, wal-3 past the generation-1 checkpoint.
  for (int generation = 0; generation < 3; ++generation) {
    Database db = CloneDatabase(master.data.db);
    EBA_ASSERT_OK_AND_ASSIGN(
        StreamingAuditor auditor,
        StreamingAuditor::RecoverFrom(&db, "LogStream", opts));
    EBA_ASSERT_OK(auditor.AppendAccessBatch(batch(4)));
  }

  // Find and delete a mid-chain WAL: the committed middle batch vanishes.
  std::vector<std::string> wal_names;
  for (const std::string& name : UnwrapOrDie(RealEnv()->ListDir(dir))) {
    if (name.rfind("wal-", 0) == 0) wal_names.push_back(name);
  }
  std::sort(wal_names.begin(), wal_names.end());
  ASSERT_GE(wal_names.size(), 3u);
  EBA_ASSERT_OK(RealEnv()->RemoveFile(dir + "/" + wal_names[1]));

  Database db = CloneDatabase(master.data.db);
  const Status recovered =
      StreamingAuditor::RecoverFrom(&db, "LogStream", opts).status();
  ASSERT_FALSE(recovered.ok())
      << "recovery replayed around a missing mid-chain WAL";
  EXPECT_NE(recovered.message().find("WAL chain broken"), std::string::npos)
      << recovered.ToString();
}

// A NULL in a primary-key column is refused on every append path. Integer
// columns read a NULL back as 0, so an accepted NULL Lid would be audited
// as lid 0.
TEST(DurabilityTest, NullLidIsRefusedBeforeAnyWalByte) {
  const int64_t mar3 = Date::FromCivil(2010, 3, 3, 9, 0, 0).ToSeconds();
  auto access = [&](Value lid) {
    return Row{std::move(lid), Value::Timestamp(mar3),
               Value::Int64(testing_util::kDave),
               Value::Int64(testing_util::kAlice),
               Value::String("viewed record")};
  };
  Database db = BuildPaperToyDatabase();
  Table* log = db.GetTable("Log").value();
  const Status plain = log->AppendRow(access(Value::Null()));
  EXPECT_EQ(plain.code(), StatusCode::kInvalidArgument) << plain.ToString();
  EXPECT_NE(plain.message().find("'Lid'"), std::string::npos)
      << plain.ToString();
  EXPECT_EQ(log->num_rows(), 2u);

  const std::string dir = TempDir("null_lid");
  DurabilityOptions opts;
  opts.dir = dir;
  opts.checkpoint_after_wal_bytes = 0;
  EBA_ASSERT_OK_AND_ASSIGN(StreamingAuditor auditor,
                           StreamingAuditor::RecoverFrom(&db, "Log", opts));
  EBA_ASSERT_OK(auditor.AddTemplate(UnwrapOrDie(ExplanationTemplate::Parse(
      db, "appt", "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User",
      "[L.Patient] had an appointment with [L.User]"))));
  const CheckpointStore store(RealEnv(), dir);
  auto wal_bytes = [&] {
    size_t bytes = 0;
    for (uint64_t seq : UnwrapOrDie(store.ListWalSeqs())) {
      bytes += ReadBytes(store.WalPath(seq)).size();
    }
    return bytes;
  };
  const size_t wal_before = wal_bytes();
  // The NULL-Lid row follows a valid one: the whole batch is refused.
  const Status durable = auditor.AppendAccessBatch(
      {access(Value::Int64(3)), access(Value::Null())});
  EXPECT_EQ(durable.code(), StatusCode::kInvalidArgument)
      << durable.ToString();
  EXPECT_EQ(wal_bytes(), wal_before);
  EXPECT_EQ(log->num_rows(), 2u);

  const StreamingReport streamed = UnwrapOrDie(auditor.ExplainNew());
  const ExplanationReport full = UnwrapOrDie(auditor.engine().ExplainAll());
  for (const std::vector<int64_t>* lids :
       {&streamed.explained_lids, &streamed.unexplained_lids,
        &full.explained_lids, &full.unexplained_lids}) {
    EXPECT_EQ(std::count(lids->begin(), lids->end(), int64_t{0}), 0);
  }
  EXPECT_EQ(full.log_size, 2u);
  EXPECT_EQ(full.unexplained_lids, (std::vector<int64_t>{2}));
}

}  // namespace
}  // namespace eba
