#include "storage/wal.h"

#include <cstring>

#include "common/crc32.h"

namespace eba {

namespace {

// Cursor-based encoding: the append path serializes every streamed row, so
// the payload is sized exactly up front and filled through a raw pointer —
// growing a std::string one 4-byte append at a time costs more than the
// table apply it write-protects.
inline char* PutU32At(char* p, uint32_t v) {
  p[0] = static_cast<char>(v & 0xFF);
  p[1] = static_cast<char>((v >> 8) & 0xFF);
  p[2] = static_cast<char>((v >> 16) & 0xFF);
  p[3] = static_cast<char>((v >> 24) & 0xFF);
  return p + 4;
}

inline char* PutU64At(char* p, uint64_t v) {
  p = PutU32At(p, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  return PutU32At(p, static_cast<uint32_t>(v >> 32));
}

size_t EncodedValueSize(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return 1;
    case DataType::kBool:
      return 2;
    case DataType::kInt64:
    case DataType::kTimestamp:
    case DataType::kDouble:
      return 9;
    case DataType::kString:
      return 5 + v.AsString().size();
  }
  return 1;
}

char* EncodeValueAt(char* p, const Value& v) {
  *p++ = static_cast<char>(v.type());
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      *p++ = v.AsBool() ? '\1' : '\0';
      break;
    case DataType::kInt64:
    case DataType::kTimestamp:
      p = PutU64At(p, static_cast<uint64_t>(v.RawInt64()));
      break;
    case DataType::kDouble: {
      uint64_t bits = 0;
      const double d = v.AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      p = PutU64At(p, bits);
      break;
    }
    case DataType::kString: {
      const std::string& s = v.AsString();
      p = PutU32At(p, static_cast<uint32_t>(s.size()));
      std::memcpy(p, s.data(), s.size());
      p += s.size();
      break;
    }
  }
  return p;
}

bool DecodeValue(ByteReader* in, Value* out) {
  uint8_t tag = 0;
  if (!in->GetU8(&tag)) return false;
  switch (static_cast<DataType>(tag)) {
    case DataType::kNull:
      *out = Value::Null();
      return true;
    case DataType::kBool: {
      uint8_t b = 0;
      if (!in->GetU8(&b)) return false;
      *out = Value::Bool(b != 0);
      return true;
    }
    case DataType::kInt64: {
      uint64_t v = 0;
      if (!in->GetU64(&v)) return false;
      *out = Value::Int64(static_cast<int64_t>(v));
      return true;
    }
    case DataType::kTimestamp: {
      uint64_t v = 0;
      if (!in->GetU64(&v)) return false;
      *out = Value::Timestamp(static_cast<int64_t>(v));
      return true;
    }
    case DataType::kDouble: {
      uint64_t bits = 0;
      if (!in->GetU64(&bits)) return false;
      double d = 0;
      std::memcpy(&d, &bits, sizeof(d));
      *out = Value::Double(d);
      return true;
    }
    case DataType::kString: {
      uint32_t len = 0;
      std::string_view bytes;
      if (!in->GetU32(&len) || !in->GetBytes(len, &bytes)) return false;
      *out = Value::String(std::string(bytes));
      return true;
    }
  }
  return false;  // unknown tag
}

}  // namespace

// --- framing ---

uint32_t FrameCrc(uint8_t type, std::string_view payload) {
  return Crc32(payload.data(), payload.size(), Crc32(&type, 1));
}

void AppendFrame(std::string* out, uint8_t type,
                 std::initializer_list<std::string_view> payload_parts) {
  size_t len = 0;
  uint32_t crc = Crc32(&type, 1);
  for (const std::string_view part : payload_parts) {
    len += part.size();
    crc = Crc32(part.data(), part.size(), crc);
  }
  PutU32(out, static_cast<uint32_t>(len));
  PutU32(out, crc);
  out->push_back(static_cast<char>(type));
  for (const std::string_view part : payload_parts) out->append(part);
}

size_t ParseFrames(std::string_view data, std::vector<FrameView>* records) {
  ByteReader in(data);
  size_t consumed = 0;
  while (true) {
    uint32_t len = 0;
    uint32_t crc = 0;
    FrameView record;
    if (!in.GetU32(&len) || !in.GetU32(&crc) || !in.GetU8(&record.type) ||
        !in.GetBytes(len, &record.payload)) {
      break;  // short header or short payload
    }
    if (FrameCrc(record.type, record.payload) != crc) break;  // bit flip
    consumed += kFrameHeaderBytes + len;
    records->push_back(record);
  }
  return consumed;
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  PutU32At(buf, v);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  PutU64At(buf, v);
  out->append(buf, 8);
}

// --- WalWriter ---

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(Env* env,
                                                     const std::string& path,
                                                     WalSync sync) {
  EBA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                       env->NewWritableFile(path, /*truncate=*/false));
  return std::unique_ptr<WalWriter>(new WalWriter(std::move(file), sync));
}

Status WalWriter::AppendRecord(uint8_t type, std::string_view payload) {
  AppendFrame(&buffer_, type, {payload});
  bytes_logged_ += kFrameHeaderBytes + payload.size();
  if (sync_ == WalSync::kAlways) return Commit();
  return Status::OK();
}

Status WalWriter::Commit() {
  if (buffer_.empty()) return Status::OK();
  EBA_RETURN_IF_ERROR(file_->Append(buffer_));
  buffer_.clear();
  if (sync_ != WalSync::kNone) return file_->Sync();
  return Status::OK();
}

Status WalWriter::Close() {
  EBA_RETURN_IF_ERROR(Commit());
  return file_->Close();
}

// --- reading ---

StatusOr<WalReadResult> ReadWalFile(Env* env, const std::string& path) {
  EBA_ASSIGN_OR_RETURN(std::string data, env->ReadFileToString(path));
  std::vector<FrameView> frames;
  WalReadResult result;
  // Everything past the valid prefix is a torn or corrupt tail.
  result.valid_bytes = ParseFrames(data, &frames);
  result.dropped_bytes = data.size() - result.valid_bytes;
  result.records.reserve(frames.size());
  for (const FrameView& frame : frames) {
    result.records.push_back(
        WalRecord{frame.type, std::string(frame.payload)});
  }
  return result;
}

// --- append-batch payloads ---

std::string EncodeAppendPayload(const std::string& table_name,
                                const std::vector<Row>& rows) {
  size_t total = 4 + table_name.size() + 4;
  for (const Row& row : rows) {
    total += 4;
    for (const Value& v : row) total += EncodedValueSize(v);
  }
  std::string out(total, '\0');
  char* p = &out[0];
  p = PutU32At(p, static_cast<uint32_t>(table_name.size()));
  std::memcpy(p, table_name.data(), table_name.size());
  p += table_name.size();
  p = PutU32At(p, static_cast<uint32_t>(rows.size()));
  for (const Row& row : rows) {
    p = PutU32At(p, static_cast<uint32_t>(row.size()));
    for (const Value& v : row) p = EncodeValueAt(p, v);
  }
  return out;
}

StatusOr<WalAppendBatch> DecodeAppendPayload(std::string_view payload) {
  const auto malformed = [] {
    return Status::Internal("malformed kWalAppendBatch payload");
  };
  ByteReader in(payload);
  WalAppendBatch batch;
  uint32_t name_len = 0;
  std::string_view name;
  if (!in.GetU32(&name_len) || !in.GetBytes(name_len, &name)) {
    return malformed();
  }
  batch.table_name = std::string(name);
  uint32_t nrows = 0;
  if (!in.GetU32(&nrows)) return malformed();
  batch.rows.reserve(nrows);
  for (uint32_t r = 0; r < nrows; ++r) {
    uint32_t ncols = 0;
    if (!in.GetU32(&ncols)) return malformed();
    Row row;
    row.reserve(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      Value v;
      if (!DecodeValue(&in, &v)) return malformed();
      row.push_back(std::move(v));
    }
    batch.rows.push_back(std::move(row));
  }
  if (!in.AtEnd()) return malformed();
  return batch;
}

}  // namespace eba
