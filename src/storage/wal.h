// Write-ahead log for streaming audit appends, and the record framing it
// shares with the wire protocol (net/frame.h) and checkpoint files
// (storage/checkpoint.h).
//
// Record framing (all integers little-endian):
//
//   +----------------+----------------+------+-----------------+
//   | u32 payload_len| u32 crc32      | u8   | payload bytes   |
//   |                | (type+payload) | type | (payload_len)   |
//   +----------------+----------------+------+-----------------+
//
// The CRC covers the type byte and the payload, so a bit flip anywhere in a
// record (including its type) is detected. Readers stop at the first record
// whose header is short, whose payload is short, or whose CRC mismatches:
// everything before that point is the valid prefix. The WAL treats what
// follows as a torn/corrupt tail to be truncated — never applied; a
// checkpoint file must be all valid prefix.
//
// Group commit: AppendRecord only buffers; Commit writes the whole buffer
// with one Append call and then syncs per the WalSync policy. A batch is
// therefore one contiguous byte range on disk, and a crash mid-Commit tears
// at most the last batch.

#ifndef EBA_STORAGE_WAL_H_
#define EBA_STORAGE_WAL_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/io.h"
#include "storage/table.h"

namespace eba {

/// u32 len + u32 crc + u8 type.
inline constexpr size_t kFrameHeaderBytes = 9;

/// The frame CRC: over the type byte, then the payload.
uint32_t FrameCrc(uint8_t type, std::string_view payload);

/// Appends one record framed under `type` to `out`, its payload the
/// concatenation of `payload_parts` (so large parts are copied once). The
/// one encoder behind WAL records, wire frames and checkpoint records.
void AppendFrame(std::string* out, uint8_t type,
                 std::initializer_list<std::string_view> payload_parts);

/// A framed record viewed in place: the payload points into the parsed
/// bytes.
struct FrameView {
  uint8_t type = 0;
  std::string_view payload;
};

/// Splits `data` into framed records from the front, stopping at the first
/// record whose header or payload is short or whose CRC mismatches. Appends
/// the records before it to `records` and returns the length of that valid
/// prefix.
size_t ParseFrames(std::string_view data, std::vector<FrameView>* records);

/// Little-endian integer encoders for record payloads.
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);

/// Cursor over an immutable byte range; Get* return false on underrun
/// (adversarial payloads must fail cleanly, never over-read).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (data_.size() < pos_ + 1) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool GetU32(uint32_t* v) {
    if (data_.size() < pos_ + 4) return false;
    *v = 0;
    for (int i = 3; i >= 0; --i) {
      *v = (*v << 8) | static_cast<uint8_t>(data_[pos_ + i]);
    }
    pos_ += 4;
    return true;
  }

  bool GetU64(uint64_t* v) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!GetU32(&lo) || !GetU32(&hi)) return false;
    *v = (uint64_t{hi} << 32) | lo;
    return true;
  }

  bool GetBytes(size_t n, std::string_view* out) {
    if (data_.size() - pos_ < n) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// When the WAL forces data to stable storage.
enum class WalSync : uint8_t {
  /// Never fsync: durable against process kill (data reached the kernel via
  /// write()), not against power loss. This is the mode the fault-injection
  /// suite exercises, and the default for benchmarks of structural overhead.
  kNone = 0,
  /// fsync once per Commit (group commit): each committed batch is durable
  /// against power loss before the append call returns.
  kBatch = 1,
  /// fsync on every record: AppendRecord implies Commit.
  kAlways = 2,
};

/// WAL record types.
enum WalRecordType : uint8_t {
  /// Payload: u32 table_name_len | table_name | u32 nrows |
  ///          per row: u32 ncols | per value: u8 DataType tag + payload.
  kWalAppendBatch = 1,
};

/// A decoded record: the type byte plus the raw payload bytes.
struct WalRecord {
  uint8_t type = 0;
  std::string payload;
};

/// Result of scanning a WAL file: the valid record prefix, how many bytes
/// it spans, and how many trailing bytes were dropped as torn/corrupt.
struct WalReadResult {
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;
  uint64_t dropped_bytes = 0;
};

/// Appends framed records to a log file with group commit.
class WalWriter {
 public:
  /// Opens `path` for appending (created if absent).
  static StatusOr<std::unique_ptr<WalWriter>> Open(Env* env,
                                                   const std::string& path,
                                                   WalSync sync);

  /// Frames `payload` under `type` into the commit buffer. Under
  /// WalSync::kAlways this also commits.
  Status AppendRecord(uint8_t type, std::string_view payload);

  /// Writes the buffered records with a single Append and syncs per policy.
  /// No-op when the buffer is empty.
  Status Commit();

  /// Total framed bytes handed to AppendRecord since Open (committed or
  /// still buffered); drives the auto-checkpoint threshold.
  uint64_t bytes_logged() const { return bytes_logged_; }

  /// Commits any buffered records, then closes the file.
  Status Close();

 private:
  WalWriter(std::unique_ptr<WritableFile> file, WalSync sync)
      : file_(std::move(file)), sync_(sync) {}

  std::unique_ptr<WritableFile> file_;
  WalSync sync_;
  std::string buffer_;
  uint64_t bytes_logged_ = 0;
};

/// Scans the WAL at `path`, returning the longest valid record prefix.
/// Truncated or CRC-mismatching tails are reported via dropped_bytes, not
/// errors: a torn tail is the expected shape of a crash. NotFound only if
/// the file itself is missing.
StatusOr<WalReadResult> ReadWalFile(Env* env, const std::string& path);

/// Serializes a batch of rows destined for `table_name` into a
/// kWalAppendBatch payload.
std::string EncodeAppendPayload(const std::string& table_name,
                                const std::vector<Row>& rows);

/// Decoded form of a kWalAppendBatch payload.
struct WalAppendBatch {
  std::string table_name;
  std::vector<Row> rows;
};

/// Parses a kWalAppendBatch payload. A payload that passed its CRC should
/// always decode; failure here means a logic error or hand-corrupted input
/// and is reported as Internal.
StatusOr<WalAppendBatch> DecodeAppendPayload(std::string_view payload);

}  // namespace eba

#endif  // EBA_STORAGE_WAL_H_
