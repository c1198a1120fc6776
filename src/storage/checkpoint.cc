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
constexpr char kManifestVersion[] = "4";
constexpr char kCurrentFile[] = "CURRENT";
constexpr char kCatalogFile[] = "catalog";
constexpr char kExplainedFile[] = "explained";
constexpr char kChunkDir[] = "chunks";

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

/// Writes rows [from, to) of `table`, which lie in one 64k-row chunk, to
/// `path` as a header record plus one chunk record per column, synced.
/// `*dict_sizes` holds each column's dictionary size at `from` on entry and
/// at `to` on return.
Status WriteChunkFile(Env* env, const std::string& path, const Table& table,
                      uint64_t from, uint64_t to,
                      std::vector<uint64_t>* dict_sizes) {
  std::string data;
  AppendFrame(&data, kTableHeaderRecord,
              {TableHeader(table, from, to, *dict_sizes)});

  // A chunk record is framed from four parts so the slots and null flags,
  // nearly all of its bytes, are copied once: into the file's image.
  std::string prefix;
  std::string dict;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    size_t dict_size = static_cast<size_t>((*dict_sizes)[c]);
    const ColumnChunk chunk = table.column(c).ExportChunk(from, to, &dict_size);
    (*dict_sizes)[c] = dict_size;
    prefix.clear();
    PutU32(&prefix, static_cast<uint32_t>(c));
    PutU64(&prefix, from);
    PutU32(&prefix, static_cast<uint32_t>(to - from));
    prefix.push_back(chunk.nulls.empty() ? '\0' : '\1');
    dict.clear();
    PutU32(&dict, static_cast<uint32_t>(chunk.dict.size()));
    for (const std::string_view entry : chunk.dict) {
      PutU32(&dict, static_cast<uint32_t>(entry.size()));
      dict += entry;
    }
    AppendFrame(&data, kColumnChunkRecord,
                {prefix, chunk.values, chunk.nulls, dict});
  }
  return env->WriteFile(path, data);
}

/// Loads the chunk file at `path`, rows [from, to) of `table`, onto it. The
/// file continues the rows loaded so far, so its header must be exactly what
/// the writer would emit now: the table's name, the row range, the column
/// types and each column's current dictionary size. One chunk record per
/// column follows, in column order, each holding all the rows; the row
/// count is published last.
Status LoadChunkFile(Env* env, const std::string& path, uint64_t from,
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
  if (records.size() != ncols + 1) {
    return Damaged(path, "holds " + std::to_string(records.size() - 1) +
                             " chunk records for " + std::to_string(ncols) +
                             " columns");
  }
  for (size_t c = 0; c < ncols; ++c) {
    ByteReader in(records[c + 1].payload);
    uint32_t col = 0;
    uint64_t first_row = 0;
    uint32_t rows = 0;
    uint8_t has_nulls = 0;
    uint32_t dict_count = 0;
    ColumnChunk chunk;
    bool ok = records[c + 1].type == kColumnChunkRecord && in.GetU32(&col) &&
              col == c && in.GetU64(&first_row) && first_row == from &&
              in.GetU32(&rows) && rows == to - from && in.GetU8(&has_nulls) &&
              has_nulls <= 1 &&
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
      return Damaged(path, "malformed chunk record for column " +
                               std::to_string(c));
    }
    const Status loaded = table->AppendColumnChunk(c, chunk);
    if (!loaded.ok()) return Damaged(path, loaded.message());
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

/// The empty tables and join metadata a checkpoint's catalog record holds.
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

Status CheckpointStore::Init() { return env_->CreateDirs(ChunkDir()); }

std::string CheckpointStore::CkptDir(uint64_t seq) const {
  return dir_ + "/ckpt-" + std::to_string(seq);
}

std::string CheckpointStore::ChunkDir() const {
  return dir_ + "/" + kChunkDir;
}

std::string CheckpointStore::ChunkPath(const std::string& table, uint64_t k,
                                       uint64_t seq) const {
  return ChunkDir() + "/" + table + "." + std::to_string(k) + "." +
         std::to_string(seq);
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
  body << "WALSEQ " << m.wal_seq << "\n";
  body << "AUDITED " << m.audited_rows << "\n";
  for (const auto& [name, state] : m.tables) {
    body << "TABLE " << name << " " << state.rows;
    for (uint64_t dict_size : state.dict_sizes) body << " " << dict_size;
    body << "\n";
    for (size_t k = 0; k < state.chunks.size(); ++k) {
      body << "CHUNK " << name << " " << k << " " << state.chunks[k].seq;
      for (uint64_t dict_size : state.chunks[k].dict_sizes) {
        body << " " << dict_size;
      }
      body << "\n";
    }
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
  auto parse_u64s = [](const std::vector<std::string>& fields, size_t first,
                       std::vector<uint64_t>* out) -> Status {
    for (size_t i = first; i < fields.size(); ++i) {
      EBA_ASSIGN_OR_RETURN(const uint64_t v, ParseU64(fields[i]));
      out->push_back(v);
    }
    return Status::OK();
  };
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (StartsWith(trimmed, "SEQ ")) {
      EBA_ASSIGN_OR_RETURN(m.seq, ParseU64(Trim(trimmed.substr(4))));
    } else if (StartsWith(trimmed, "WALSEQ ")) {
      EBA_ASSIGN_OR_RETURN(m.wal_seq, ParseU64(Trim(trimmed.substr(7))));
    } else if (StartsWith(trimmed, "AUDITED ")) {
      EBA_ASSIGN_OR_RETURN(m.audited_rows, ParseU64(Trim(trimmed.substr(8))));
    } else if (StartsWith(trimmed, "TABLE ")) {
      const auto fields = SplitFields(trimmed.substr(6));
      if (fields.size() < 2) return parse_error("TABLE needs name rows");
      Manifest::TableState& state = m.tables[fields[0]];
      EBA_ASSIGN_OR_RETURN(state.rows, ParseU64(fields[1]));
      EBA_RETURN_IF_ERROR(parse_u64s(fields, 2, &state.dict_sizes));
    } else if (StartsWith(trimmed, "CHUNK ")) {
      const auto fields = SplitFields(trimmed.substr(6));
      if (fields.size() < 3) return parse_error("CHUNK needs name k seq");
      std::vector<Manifest::Chunk>& chunks = m.tables[fields[0]].chunks;
      EBA_ASSIGN_OR_RETURN(const uint64_t k, ParseU64(fields[1]));
      if (k != chunks.size()) return parse_error("CHUNK out of order");
      Manifest::Chunk chunk;
      EBA_ASSIGN_OR_RETURN(chunk.seq, ParseU64(fields[2]));
      EBA_RETURN_IF_ERROR(parse_u64s(fields, 3, &chunk.dict_sizes));
      chunks.push_back(std::move(chunk));
    } else if (StartsWith(trimmed, "WATERMARK ")) {
      const auto fields = SplitFields(trimmed.substr(10));
      if (fields.size() != 2) return parse_error("WATERMARK needs name wm");
      EBA_ASSIGN_OR_RETURN(m.audit_watermarks[fields[0]], ParseU64(fields[1]));
    } else {
      return parse_error("unrecognized directive: " + trimmed);
    }
  }
  // Every table is covered by its chunks, each with one dictionary size per
  // column.
  for (const auto& [name, state] : m.tables) {
    bool ok = state.chunks.size() ==
              (state.rows + kColumnChunkRows - 1) >> kColumnChunkShift;
    for (const Manifest::Chunk& chunk : state.chunks) {
      ok = ok && chunk.dict_sizes.size() == state.dict_sizes.size();
    }
    if (!ok) {
      return Status::Internal("checkpoint manifest " + path +
                              ": the CHUNK lines of table '" + name +
                              "' do not cover its " +
                              std::to_string(state.rows) + " rows");
    }
  }
  return m;
}

StatusOr<uint64_t> CheckpointStore::Prepare(const Database& db,
                                            const AuditState& audit,
                                            bool tables_continue,
                                            uint64_t min_seq) {
  uint64_t current = 0;
  {
    StatusOr<uint64_t> cur = CurrentSeq();
    if (cur.ok()) {
      current = *cur;
    } else if (!cur.status().IsNotFound()) {
      return cur.status();
    }
  }
  const uint64_t seq = std::max(current + 1, min_seq);

  // The published checkpoint whose unchanged chunks this one names. Without
  // a readable one, every chunk is written.
  Manifest published;
  if (tables_continue && current > 0) {
    StatusOr<Manifest> m = ReadManifest(current);
    if (m.ok()) published = std::move(*m);
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
  for (const std::string& name : db.TableNames()) {
    EBA_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
    Manifest::TableState& state = m.tables[name];
    state.rows = table->num_rows();
    state.dict_sizes = DictSizes(*table);
    // Each column's dictionary size at the first chunk written.
    std::vector<uint64_t> dict_sizes(table->num_columns(), 0);
    const auto prev = published.tables.find(name);
    if (prev != published.tables.end() && prev->second.rows <= state.rows &&
        prev->second.dict_sizes.size() == table->num_columns()) {
      // The published filled chunks are shared; so is its open last chunk
      // when the table did not grow.
      const Manifest::TableState& from = prev->second;
      const size_t shared = from.rows == state.rows
                                ? from.chunks.size()
                                : from.rows >> kColumnChunkShift;
      state.chunks.assign(from.chunks.begin(), from.chunks.begin() + shared);
      dict_sizes = shared < from.chunks.size() ? from.chunks[shared].dict_sizes
                                               : from.dict_sizes;
    }
    for (uint64_t k = state.chunks.size(); k << kColumnChunkShift < state.rows;
         ++k) {
      const uint64_t begin = k << kColumnChunkShift;
      const uint64_t end =
          std::min<uint64_t>(state.rows, begin + kColumnChunkRows);
      state.chunks.push_back({seq, dict_sizes});
      EBA_RETURN_IF_ERROR(WriteChunkFile(env_, ChunkPath(name, k, seq),
                                         *table, begin, end, &dict_sizes));
    }
  }
  EBA_RETURN_IF_ERROR(env_->SyncDir(ChunkDir()));

  std::string catalog;
  AppendFrame(&catalog, kCatalogRecord, {CatalogToText(db)});
  EBA_RETURN_IF_ERROR(env_->WriteFile(ckpt_dir + "/" + kCatalogFile, catalog));
  EBA_RETURN_IF_ERROR(WriteExplained(
      env_, ckpt_dir + "/" + kExplainedFile, audit.explained));
  EBA_RETURN_IF_ERROR(WriteManifest(seq, m));
  EBA_RETURN_IF_ERROR(env_->SyncDir(ckpt_dir));
  return seq;
}

Status CheckpointStore::Publish(uint64_t seq) {
  EBA_RETURN_IF_ERROR(env_->WriteFileAtomic(
      dir_ + "/" + kCurrentFile, "ckpt-" + std::to_string(seq) + "\n"));

  // Garbage-collect everything the new checkpoint does not need: the other
  // checkpoint directories, the chunk files it does not name, and the WAL
  // files before its WALSEQ, which recovery never replays. Leftovers from a
  // crash mid-GC, or from a checkpoint never published, are harmless
  // (recovery only follows CURRENT) and are swept by the next Publish.
  EBA_ASSIGN_OR_RETURN(const Manifest m, ReadManifest(seq));
  const std::string ckpt_name = "ckpt-" + std::to_string(seq);
  EBA_ASSIGN_OR_RETURN(std::vector<std::string> names, env_->ListDir(dir_));
  for (const std::string& name : names) {
    if (StartsWith(name, "ckpt-") && name != ckpt_name) {
      EBA_RETURN_IF_ERROR(env_->RemoveAll(dir_ + "/" + name));
    }
  }
  std::set<std::string> named;
  for (const auto& [table, state] : m.tables) {
    for (size_t k = 0; k < state.chunks.size(); ++k) {
      named.insert(ChunkPath(table, k, state.chunks[k].seq));
    }
  }
  EBA_ASSIGN_OR_RETURN(names, env_->ListDir(ChunkDir()));
  for (const std::string& name : names) {
    const std::string path = ChunkDir() + "/" + name;
    if (named.count(path) == 0) EBA_RETURN_IF_ERROR(env_->RemoveFile(path));
  }
  EBA_ASSIGN_OR_RETURN(std::vector<uint64_t> wals, ListWalSeqs());
  for (uint64_t wal : wals) {
    if (wal >= m.wal_seq) break;
    EBA_RETURN_IF_ERROR(env_->RemoveFile(WalPath(wal)));
  }
  return Status::OK();
}

StatusOr<CheckpointContents> CheckpointStore::LoadNewest() const {
  EBA_ASSIGN_OR_RETURN(const uint64_t seq, CurrentSeq());
  EBA_ASSIGN_OR_RETURN(const Manifest m, ReadManifest(seq));

  const auto load_start = std::chrono::steady_clock::now();
  const std::string ckpt_dir = CkptDir(seq);
  EBA_ASSIGN_OR_RETURN(Database db,
                       LoadCatalog(env_, ckpt_dir + "/" + kCatalogFile));
  if (db.TableNames().size() != m.tables.size()) {
    return Status::Internal("checkpoint catalog in " + ckpt_dir +
                            " disagrees with its manifest's tables");
  }
  for (const auto& [name, state] : m.tables) {
    EBA_ASSIGN_OR_RETURN(Table * table, db.GetTable(name));
    for (size_t k = 0; k < state.chunks.size(); ++k) {
      const Manifest::Chunk& chunk = state.chunks[k];
      const std::string path = ChunkPath(name, k, chunk.seq);
      // The next checkpoint writes this chunk again from these sizes when
      // it is the open one, so they must be the loaded rows' sizes.
      if (chunk.dict_sizes != DictSizes(*table)) {
        return Damaged(path, "its CHUNK line disagrees with table '" + name +
                                 "' as loaded so far");
      }
      const uint64_t begin = uint64_t{k} << kColumnChunkShift;
      EBA_RETURN_IF_ERROR(LoadChunkFile(
          env_, path, begin,
          std::min<uint64_t>(state.rows, begin + kColumnChunkRows), table));
    }
    if (table->num_rows() != state.rows ||
        DictSizes(*table) != state.dict_sizes) {
      return Status::Internal(
          "checkpoint row-count or dictionary mismatch for table '" + name +
          "': have " + std::to_string(table->num_rows()) +
          " rows, manifest says " + std::to_string(state.rows));
    }
  }

  CheckpointContents out;
  EBA_ASSIGN_OR_RETURN(
      out.audit.explained,
      LoadExplained(env_, ckpt_dir + "/" + kExplainedFile, m.audited_rows));
  out.audit.audit_watermarks = m.audit_watermarks;
  out.db = std::move(db);
  out.seq = m.seq;
  out.wal_seq = m.wal_seq;
  out.db_load_seconds = SecondsSince(load_start);
  return out;
}

}  // namespace eba
