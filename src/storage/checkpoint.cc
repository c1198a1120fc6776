#include "storage/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <set>
#include <sstream>

#include "common/crc32.h"
#include "common/string_util.h"
#include "storage/persist.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace eba {

namespace {

constexpr char kManifestVersionPrefix[] = "# eba checkpoint v";
constexpr char kManifestVersion[] = "3";
constexpr char kCurrentFile[] = "CURRENT";
constexpr char kCatalogFile[] = "catalog";
constexpr char kExplainedFile[] = "explained";

/// Record types of checkpoint data files.
enum CheckpointRecordType : uint8_t {
  /// Payload: CatalogToText (persist.h).
  kCatalogRecord = 1,
  /// Payload: u32 name_len | name | u64 from | u64 to | u32 ncols |
  ///          per column: u8 DataType | u64 dictionary size at `from`.
  kTableHeaderRecord = 2,
  /// Payload: u32 column | u64 first_row | u32 rows | u8 has_nulls |
  ///          rows x 8-byte slot | (has_nulls) rows x u8 flag |
  ///          u32 dict_count | per entry: u32 len | bytes.
  kColumnChunkRecord = 3,
  /// Payload: u64 first_row | u32 rows | rows x u8 flag — the explained
  ///          flags of log rows [first_row, first_row + rows).
  kExplainedChunkRecord = 4,
};

/// Data files reach the Env in pieces of about this size, so a large table
/// never holds a second in-memory copy of its whole image.
constexpr size_t kWriteBufferBytes = size_t{4} << 20;

StatusOr<uint64_t> ParseU64(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("not a u64: '" + text + "'");
  }
  return static_cast<uint64_t>(v);
}


std::string CrcHex(uint32_t crc) {
  std::ostringstream out;
  out << std::hex << crc;
  return out.str();
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Fields of one manifest line after the directive keyword.
std::vector<std::string> SplitFields(const std::string& text) {
  std::vector<std::string> fields;
  for (const auto& part : Split(text, ' ')) {
    if (!Trim(part).empty()) fields.push_back(Trim(part));
  }
  return fields;
}

/// Each column's dictionary size (0 for non-strings).
std::vector<uint64_t> DictSizes(const Table& table) {
  std::vector<uint64_t> sizes;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    sizes.push_back(table.column(c).DictionarySize());
  }
  return sizes;
}

Status Damaged(const std::string& path, const std::string& what) {
  return Status::Internal("checkpoint file " + path + ": " + what);
}

/// Reads the framed records of a checkpoint data file into `*data`, which
/// the returned records view. Unlike a WAL, the file must be all valid
/// records: CURRENT only names synced checkpoints, so a torn or corrupt
/// record is damage.
StatusOr<std::vector<FrameView>> ReadRecords(Env* env, const std::string& path,
                                             std::string* data) {
  EBA_ASSIGN_OR_RETURN(*data, env->ReadFileToString(path));
  std::vector<FrameView> records;
  if (ParseFrames(*data, &records) != data->size()) {
    return Damaged(path, "torn or corrupt record");
  }
  return records;
}

/// The header record payload of a file holding rows [from, to) of `table`;
/// `dict_sizes` holds each column's dictionary size at `from`.
std::string TableHeader(const Table& table, uint64_t from, uint64_t to,
                        const std::vector<uint64_t>& dict_sizes) {
  std::string header;
  PutU32(&header, static_cast<uint32_t>(table.name().size()));
  header += table.name();
  PutU64(&header, from);
  PutU64(&header, to);
  PutU32(&header, static_cast<uint32_t>(table.num_columns()));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    header.push_back(static_cast<char>(table.column(c).type()));
    PutU64(&header, dict_sizes[c]);
  }
  return header;
}

/// Writes rows [from, to) of `table` to `path` as a header record plus one
/// record per (column, 64k-row chunk), then syncs. `dict_sizes` holds each
/// column's dictionary size at `from`.
Status WriteTableImage(Env* env, const std::string& path, const Table& table,
                       uint64_t from, uint64_t to,
                       const std::vector<uint64_t>& dict_sizes) {
  EBA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                       env->NewWritableFile(path, /*truncate=*/true));
  std::string buffer;
  AppendFrame(&buffer, kTableHeaderRecord,
              {TableHeader(table, from, to, dict_sizes)});

  // A chunk record is framed from four parts so the slots and null flags,
  // nearly all of its bytes, are copied once: into the write buffer.
  std::string prefix;
  std::string dict;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    size_t dict_size = static_cast<size_t>(dict_sizes[c]);
    for (uint64_t begin = from; begin < to;) {
      const uint64_t end =
          std::min<uint64_t>(to, (begin | kColumnChunkMask) + 1);
      const ColumnChunk chunk =
          table.column(c).ExportChunk(begin, end, &dict_size);
      prefix.clear();
      PutU32(&prefix, static_cast<uint32_t>(c));
      PutU64(&prefix, begin);
      PutU32(&prefix, static_cast<uint32_t>(end - begin));
      prefix.push_back(chunk.nulls.empty() ? '\0' : '\1');
      dict.clear();
      PutU32(&dict, static_cast<uint32_t>(chunk.dict.size()));
      for (const std::string_view entry : chunk.dict) {
        PutU32(&dict, static_cast<uint32_t>(entry.size()));
        dict += entry;
      }
      AppendFrame(&buffer, kColumnChunkRecord,
                  {prefix, chunk.values, chunk.nulls, dict});
      if (buffer.size() >= kWriteBufferBytes) {
        EBA_RETURN_IF_ERROR(file->Append(buffer));
        buffer.clear();
      }
      begin = end;
    }
  }
  if (!buffer.empty()) EBA_RETURN_IF_ERROR(file->Append(buffer));
  EBA_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

/// Loads the table file at `path` onto `table`. The file continues the rows
/// loaded so far, so its header must be exactly what the writer would emit
/// for the manifest's rows [from, to) of this table now: its name, column
/// types, and each column's current dictionary size. Every column is
/// bulk-loaded to `to`; the row count is published last.
Status LoadTableImage(Env* env, const std::string& path, uint64_t from,
                      uint64_t to, Table* table) {
  std::string data;
  EBA_ASSIGN_OR_RETURN(std::vector<FrameView> records,
                       ReadRecords(env, path, &data));
  if (from != table->num_rows()) {
    return Damaged(path, "starts at row " + std::to_string(from) +
                             " but the table holds " +
                             std::to_string(table->num_rows()) + " rows");
  }
  if (records.empty() || records[0].type != kTableHeaderRecord ||
      records[0].payload != TableHeader(*table, from, to, DictSizes(*table))) {
    return Damaged(path, "header disagrees with rows [" +
                             std::to_string(from) + ", " + std::to_string(to) +
                             ") of table '" + table->name() +
                             "' as loaded so far");
  }
  const size_t ncols = table->num_columns();
  std::vector<uint64_t> next_row(ncols, from);
  for (size_t i = 1; i < records.size(); ++i) {
    ByteReader in(records[i].payload);
    uint32_t col = 0;
    uint64_t first_row = 0;
    uint32_t rows = 0;
    uint8_t has_nulls = 0;
    uint32_t dict_count = 0;
    ColumnChunk chunk;
    bool ok = records[i].type == kColumnChunkRecord && in.GetU32(&col) &&
              in.GetU64(&first_row) && in.GetU32(&rows) &&
              in.GetU8(&has_nulls) && has_nulls <= 1 &&
              in.GetBytes(size_t{rows} * sizeof(int64_t), &chunk.values) &&
              in.GetBytes(has_nulls ? rows : 0, &chunk.nulls) &&
              in.GetU32(&dict_count);
    for (uint32_t d = 0; ok && d < dict_count; ++d) {
      uint32_t len = 0;
      std::string_view entry;
      ok = in.GetU32(&len) && in.GetBytes(len, &entry);
      chunk.dict.push_back(entry);
    }
    if (!ok || !in.AtEnd()) {
      return Damaged(path, "malformed chunk record " + std::to_string(i));
    }
    if (col >= ncols || first_row != next_row[col] || rows > to - first_row) {
      return Damaged(path, "chunk record " + std::to_string(i) +
                               " holds rows out of order");
    }
    const Status loaded = table->AppendColumnChunk(col, chunk);
    if (!loaded.ok()) return Damaged(path, loaded.message());
    next_row[col] += rows;
  }
  for (size_t c = 0; c < ncols; ++c) {
    if (next_row[c] != to) {
      return Damaged(path, "column " + std::to_string(c) + " ends at row " +
                               std::to_string(next_row[c]) + ", not " +
                               std::to_string(to));
    }
  }
  return table->PublishColumnRows();
}

/// Writes the explained flags to `path`, one record per 64k-row chunk,
/// synced.
Status WriteExplained(Env* env, const std::string& path,
                      const std::vector<uint8_t>& flags) {
  std::string data;
  std::string prefix;
  for (size_t begin = 0; begin < flags.size(); begin += kColumnChunkRows) {
    const size_t rows = std::min(kColumnChunkRows, flags.size() - begin);
    prefix.clear();
    PutU64(&prefix, begin);
    PutU32(&prefix, static_cast<uint32_t>(rows));
    AppendFrame(&data, kExplainedChunkRecord,
                {prefix, std::string_view(reinterpret_cast<const char*>(
                                              flags.data() + begin),
                                          rows)});
  }
  return env->WriteFile(path, data);
}

/// The explained flags of log rows [0, audited) from `path`, checked as
/// null flags are: the records come in row order, every flag is 0 or 1,
/// and together they cover exactly `audited` rows.
StatusOr<std::vector<uint8_t>> LoadExplained(Env* env, const std::string& path,
                                             uint64_t audited) {
  std::string data;
  EBA_ASSIGN_OR_RETURN(std::vector<FrameView> records,
                       ReadRecords(env, path, &data));
  std::vector<uint8_t> flags;
  for (size_t i = 0; i < records.size(); ++i) {
    ByteReader in(records[i].payload);
    uint64_t first_row = 0;
    uint32_t rows = 0;
    std::string_view bytes;
    if (records[i].type != kExplainedChunkRecord || !in.GetU64(&first_row) ||
        !in.GetU32(&rows) || !in.GetBytes(rows, &bytes) || !in.AtEnd()) {
      return Damaged(path, "malformed explained record " + std::to_string(i));
    }
    if (first_row != flags.size() || rows > audited - first_row) {
      return Damaged(path, "explained record " + std::to_string(i) +
                               " holds rows out of order");
    }
    if (!std::all_of(bytes.begin(), bytes.end(),
                     [](char flag) { return flag == 0 || flag == 1; })) {
      return Damaged(path, "explained record " + std::to_string(i) +
                               " holds a flag other than 0 or 1");
    }
    flags.insert(flags.end(), bytes.begin(), bytes.end());
  }
  if (flags.size() != audited) {
    return Damaged(path, "explained flags end at row " +
                             std::to_string(flags.size()) + ", not " +
                             std::to_string(audited));
  }
  return flags;
}

/// The empty tables and join metadata a full image's catalog record holds.
StatusOr<Database> LoadCatalog(Env* env, const std::string& path) {
  std::string data;
  EBA_ASSIGN_OR_RETURN(std::vector<FrameView> records,
                       ReadRecords(env, path, &data));
  if (records.size() != 1 || records[0].type != kCatalogRecord) {
    return Damaged(path, "expected one catalog record");
  }
  StatusOr<Catalog> catalog = ParseCatalog(std::string(records[0].payload));
  if (!catalog.ok()) return Damaged(path, catalog.status().message());
  Database db;
  for (TableSchema& schema : catalog->tables) {
    EBA_RETURN_IF_ERROR(db.CreateTable(std::move(schema)));
  }
  EBA_RETURN_IF_ERROR(catalog->ApplyJoinMetadata(&db));
  return db;
}

}  // namespace

CheckpointStore::CheckpointStore(Env* env, std::string dir)
    : env_(env != nullptr ? env : RealEnv()), dir_(std::move(dir)) {}

Status CheckpointStore::Init() { return env_->CreateDirs(dir_); }

std::string CheckpointStore::CkptDir(uint64_t seq) const {
  return dir_ + "/ckpt-" + std::to_string(seq);
}

std::string CheckpointStore::WalPath(uint64_t seq) const {
  return dir_ + "/wal-" + std::to_string(seq) + ".log";
}

StatusOr<std::vector<uint64_t>> CheckpointStore::ListWalSeqs() const {
  EBA_ASSIGN_OR_RETURN(std::vector<std::string> names, env_->ListDir(dir_));
  std::vector<uint64_t> seqs;
  for (const std::string& name : names) {
    if (!StartsWith(name, "wal-") || !EndsWith(name, ".log")) continue;
    StatusOr<uint64_t> n = ParseU64(name.substr(4, name.size() - 4 - 4));
    // Only WalPath's own spelling counts (not, say, "wal-07.log").
    if (n.ok() && WalPath(*n) == dir_ + "/" + name) seqs.push_back(*n);
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

StatusOr<uint64_t> CheckpointStore::CurrentSeq() const {
  const std::string current_path = dir_ + "/" + kCurrentFile;
  if (!env_->FileExists(current_path)) {
    return Status::NotFound("no checkpoint published in '" + dir_ + "'");
  }
  EBA_ASSIGN_OR_RETURN(std::string content,
                       env_->ReadFileToString(current_path));
  const std::string name = Trim(content);
  if (!StartsWith(name, "ckpt-")) {
    return Status::Internal("corrupt CURRENT in '" + dir_ + "': " + name);
  }
  return ParseU64(name.substr(5));
}

Status CheckpointStore::WriteManifest(uint64_t seq, const Manifest& m) const {
  std::ostringstream body;
  body << kManifestVersionPrefix << kManifestVersion << "\n";
  body << "SEQ " << m.seq << "\n";
  if (m.has_base) body << "BASE " << m.base << "\n";
  body << "WALSEQ " << m.wal_seq << "\n";
  body << "AUDITED " << m.audited_rows << "\n";
  for (const auto& [name, state] : m.tables) {
    body << "TABLE " << name << " " << state.rows;
    for (uint64_t dict_size : state.dict_sizes) body << " " << dict_size;
    body << "\n";
  }
  for (const auto& [name, seg] : m.segments) {
    body << "SEGMENT " << name << " " << seg.from_row << " " << seg.to_row
         << " " << seg.file << "\n";
  }
  for (const auto& [name, wm] : m.audit_watermarks) {
    body << "WATERMARK " << name << " " << wm << "\n";
  }
  std::string text = body.str();
  text += "CRC " + CrcHex(Crc32(text)) + "\n";
  return env_->WriteFile(CkptDir(seq) + "/ckpt.txt", text);
}

StatusOr<CheckpointStore::Manifest> CheckpointStore::ReadManifest(
    uint64_t seq) const {
  const std::string path = CkptDir(seq) + "/ckpt.txt";
  EBA_ASSIGN_OR_RETURN(std::string text, env_->ReadFileToString(path));

  const size_t crc_pos = text.rfind("\nCRC ");
  if (crc_pos == std::string::npos) {
    return Status::Internal("checkpoint manifest missing CRC: " + path);
  }
  const std::string body = text.substr(0, crc_pos + 1);  // includes the '\n'
  const std::string crc_text = Trim(text.substr(crc_pos + 5));
  errno = 0;
  char* end = nullptr;
  const unsigned long long stored = std::strtoull(crc_text.c_str(), &end, 16);
  if (end == crc_text.c_str() || *end != '\0' || errno == ERANGE ||
      static_cast<uint32_t>(stored) != Crc32(body)) {
    return Status::Internal("checkpoint manifest failed CRC: " + path);
  }

  // The version line comes first; a store of another format is refused by
  // name, not misread.
  const std::string version_line = body.substr(0, body.find('\n'));
  if (!StartsWith(version_line, kManifestVersionPrefix)) {
    return Status::Internal("not a checkpoint manifest: " + path);
  }
  const std::string version =
      version_line.substr(sizeof(kManifestVersionPrefix) - 1);
  if (version != kManifestVersion) {
    return Status::Internal("checkpoint manifest " + path + " is format v" +
                            version + "; this build reads only v" +
                            kManifestVersion);
  }

  Manifest m;
  std::istringstream in(body);
  std::string line;
  int line_number = 0;
  auto parse_error = [&](const std::string& message) {
    return Status::Internal("checkpoint manifest " + path + " line " +
                            std::to_string(line_number) + ": " + message);
  };
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (StartsWith(trimmed, "SEQ ")) {
      EBA_ASSIGN_OR_RETURN(m.seq, ParseU64(Trim(trimmed.substr(4))));
    } else if (StartsWith(trimmed, "BASE ")) {
      m.has_base = true;
      EBA_ASSIGN_OR_RETURN(m.base, ParseU64(Trim(trimmed.substr(5))));
    } else if (StartsWith(trimmed, "WALSEQ ")) {
      EBA_ASSIGN_OR_RETURN(m.wal_seq, ParseU64(Trim(trimmed.substr(7))));
    } else if (StartsWith(trimmed, "AUDITED ")) {
      EBA_ASSIGN_OR_RETURN(m.audited_rows, ParseU64(Trim(trimmed.substr(8))));
    } else if (StartsWith(trimmed, "TABLE ")) {
      const auto fields = SplitFields(trimmed.substr(6));
      if (fields.size() < 2) return parse_error("TABLE needs name rows");
      Manifest::TableState& state = m.tables[fields[0]];
      EBA_ASSIGN_OR_RETURN(state.rows, ParseU64(fields[1]));
      for (size_t i = 2; i < fields.size(); ++i) {
        EBA_ASSIGN_OR_RETURN(const uint64_t dict_size, ParseU64(fields[i]));
        state.dict_sizes.push_back(dict_size);
      }
    } else if (StartsWith(trimmed, "SEGMENT ")) {
      const auto fields = SplitFields(trimmed.substr(8));
      if (fields.size() != 4) {
        return parse_error("SEGMENT needs name from to file");
      }
      Manifest::Segment seg;
      EBA_ASSIGN_OR_RETURN(seg.from_row, ParseU64(fields[1]));
      EBA_ASSIGN_OR_RETURN(seg.to_row, ParseU64(fields[2]));
      seg.file = fields[3];
      m.segments[fields[0]] = std::move(seg);
    } else if (StartsWith(trimmed, "WATERMARK ")) {
      const auto fields = SplitFields(trimmed.substr(10));
      if (fields.size() != 2) return parse_error("WATERMARK needs name wm");
      EBA_ASSIGN_OR_RETURN(m.audit_watermarks[fields[0]], ParseU64(fields[1]));
    } else {
      return parse_error("unrecognized directive: " + trimmed);
    }
  }
  return m;
}

StatusOr<uint64_t> CheckpointStore::Prepare(const Database& db,
                                            const AuditState& audit,
                                            bool full, uint64_t min_seq) {
  uint64_t base_seq = 0;
  bool has_current = false;
  {
    StatusOr<uint64_t> cur = CurrentSeq();
    if (cur.ok()) {
      has_current = true;
      base_seq = *cur;
    } else if (!cur.status().IsNotFound()) {
      return cur.status();
    }
  }
  const uint64_t seq = std::max(base_seq + 1, min_seq);

  Manifest base;
  if (!has_current) {
    full = true;
  } else if (!full) {
    StatusOr<Manifest> base_or = ReadManifest(base_seq);
    if (!base_or.ok()) {
      full = true;  // unreadable base: fall back to a self-contained image
    } else {
      base = std::move(*base_or);
      // An incremental checkpoint only works when every table grew from the
      // base (schemas and join metadata are carried by the full root, so
      // table churn or a changed column count demotes to a full image; a
      // same-name replacement that grew is the caller's to catch).
      if (base.tables.size() != db.TableNames().size()) full = true;
      for (const std::string& name : db.TableNames()) {
        const auto it = base.tables.find(name);
        if (it == base.tables.end()) {
          full = true;
          break;
        }
        EBA_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
        if (it->second.rows > table->num_rows() ||
            it->second.dict_sizes.size() != table->num_columns()) {
          full = true;
          break;
        }
      }
    }
  }

  const std::string ckpt_dir = CkptDir(seq);
  if (env_->FileExists(ckpt_dir)) {
    EBA_RETURN_IF_ERROR(env_->RemoveAll(ckpt_dir));  // unpublished leftover
  }
  EBA_RETURN_IF_ERROR(env_->CreateDirs(ckpt_dir));

  Manifest m;
  m.seq = seq;
  m.wal_seq = seq;
  m.audited_rows = audit.explained.size();
  m.audit_watermarks = audit.audit_watermarks;
  EBA_RETURN_IF_ERROR(WriteExplained(
      env_, ckpt_dir + "/" + kExplainedFile, audit.explained));
  for (const std::string& name : db.TableNames()) {
    EBA_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
    m.tables[name] = {table->num_rows(), DictSizes(*table)};
  }

  if (full) {
    const std::string db_dir = ckpt_dir + "/db";
    EBA_RETURN_IF_ERROR(env_->CreateDirs(db_dir));
    std::string catalog;
    AppendFrame(&catalog, kCatalogRecord, {CatalogToText(db)});
    EBA_RETURN_IF_ERROR(
        env_->WriteFile(ckpt_dir + "/" + kCatalogFile, catalog));
    for (const auto& [name, state] : m.tables) {
      EBA_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
      EBA_RETURN_IF_ERROR(WriteTableImage(
          env_, db_dir + "/" + name, *table, 0, state.rows,
          std::vector<uint64_t>(table->num_columns(), 0)));
    }
    EBA_RETURN_IF_ERROR(env_->SyncDir(db_dir));
  } else {
    m.has_base = true;
    m.base = base_seq;
    for (const auto& [name, state] : m.tables) {
      EBA_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
      const Manifest::TableState& from = base.tables.at(name);
      if (from.rows == state.rows) continue;
      Manifest::Segment seg;
      seg.from_row = from.rows;
      seg.to_row = state.rows;
      seg.file = "seg-" + name;
      EBA_RETURN_IF_ERROR(WriteTableImage(env_, ckpt_dir + "/" + seg.file,
                                          *table, from.rows, state.rows,
                                          from.dict_sizes));
      m.segments[name] = std::move(seg);
    }
  }

  EBA_RETURN_IF_ERROR(WriteManifest(seq, m));
  EBA_RETURN_IF_ERROR(env_->SyncDir(ckpt_dir));
  return seq;
}

Status CheckpointStore::Publish(uint64_t seq) {
  EBA_RETURN_IF_ERROR(env_->WriteFileAtomic(
      dir_ + "/" + kCurrentFile, "ckpt-" + std::to_string(seq) + "\n"));

  // Garbage-collect: keep only the new chain and the WAL files from its
  // newest link's WALSEQ on, the only ones recovery replays. Leftovers from
  // a crash mid-GC are harmless (recovery only follows CURRENT) and are
  // swept by the next Publish.
  std::set<uint64_t> chain;
  uint64_t wal_min = 0;
  uint64_t walk = seq;
  while (true) {
    EBA_ASSIGN_OR_RETURN(Manifest m, ReadManifest(walk));
    if (walk == seq) wal_min = m.wal_seq;
    chain.insert(walk);
    if (!m.has_base) break;
    walk = m.base;
  }

  EBA_ASSIGN_OR_RETURN(std::vector<std::string> names, env_->ListDir(dir_));
  for (const std::string& name : names) {
    if (!StartsWith(name, "ckpt-")) continue;
    StatusOr<uint64_t> n = ParseU64(name.substr(5));
    if (n.ok() && chain.count(*n) == 0) {
      EBA_RETURN_IF_ERROR(env_->RemoveAll(dir_ + "/" + name));
    }
  }
  EBA_ASSIGN_OR_RETURN(std::vector<uint64_t> wals, ListWalSeqs());
  for (uint64_t wal : wals) {
    if (wal >= wal_min) break;
    EBA_RETURN_IF_ERROR(env_->RemoveFile(WalPath(wal)));
  }
  return Status::OK();
}

StatusOr<CheckpointContents> CheckpointStore::LoadNewest() const {
  EBA_ASSIGN_OR_RETURN(uint64_t seq, CurrentSeq());

  // Walk the BASE chain down to the full root, newest first.
  std::vector<Manifest> chain;
  uint64_t walk = seq;
  while (true) {
    EBA_ASSIGN_OR_RETURN(Manifest m, ReadManifest(walk));
    const bool at_root = !m.has_base;
    const uint64_t next = m.base;
    chain.push_back(std::move(m));
    if (at_root) break;
    walk = next;
  }
  std::reverse(chain.begin(), chain.end());  // root (full) first

  const auto load_start = std::chrono::steady_clock::now();
  const std::string root_dir = CkptDir(chain.front().seq);
  EBA_ASSIGN_OR_RETURN(Database db,
                       LoadCatalog(env_, root_dir + "/" + kCatalogFile));
  if (db.TableNames().size() != chain.front().tables.size()) {
    return Status::Internal("checkpoint catalog in " + root_dir +
                            " disagrees with its manifest's tables");
  }
  for (const auto& [name, state] : chain.front().tables) {
    EBA_ASSIGN_OR_RETURN(Table * table, db.GetTable(name));
    EBA_RETURN_IF_ERROR(LoadTableImage(env_, root_dir + "/db/" + name, 0,
                                       state.rows, table));
  }
  for (size_t i = 1; i < chain.size(); ++i) {
    for (const auto& [name, seg] : chain[i].segments) {
      EBA_ASSIGN_OR_RETURN(Table * table, db.GetTable(name));
      EBA_RETURN_IF_ERROR(
          LoadTableImage(env_, CkptDir(chain[i].seq) + "/" + seg.file,
                         seg.from_row, seg.to_row, table));
    }
  }
  const Manifest& newest = chain.back();
  for (const auto& [name, state] : newest.tables) {
    EBA_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
    if (table->num_rows() != state.rows ||
        DictSizes(*table) != state.dict_sizes) {
      return Status::Internal(
          "checkpoint row-count or dictionary mismatch for table '" + name +
          "': have " + std::to_string(table->num_rows()) +
          " rows, manifest says " + std::to_string(state.rows));
    }
  }

  // Only the newest link's explained flags are recovered.
  CheckpointContents out;
  EBA_ASSIGN_OR_RETURN(
      out.audit.explained,
      LoadExplained(env_, CkptDir(newest.seq) + "/" + kExplainedFile,
                    newest.audited_rows));
  out.audit.audit_watermarks = newest.audit_watermarks;
  out.db = std::move(db);
  out.seq = newest.seq;
  out.wal_seq = newest.wal_seq;
  out.chain_length = chain.size();
  out.db_load_seconds = SecondsSince(load_start);
  return out;
}

}  // namespace eba
