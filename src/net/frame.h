// Request/response framing for the auditing server, byte-compatible with
// the WAL's record discipline (storage/wal.h):
//
//   +----------------+----------------+------+-----------------+
//   | u32 payload_len| u32 crc32      | u8   | payload bytes   |
//   |                | (type+payload) | type | (payload_len)   |
//   +----------------+----------------+------+-----------------+
//
// All integers little-endian. The CRC covers the type byte and the payload,
// so a bit flip anywhere in a frame is detected before dispatch. Unlike the
// WAL reader (which treats a bad tail as a torn crash artifact to truncate),
// the connection reader treats any malformed frame as a protocol error: the
// peer is live and must either have sent the bytes it framed or be dropped.

#ifndef EBA_NET_FRAME_H_
#define EBA_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/socket.h"
#include "storage/wal.h"

namespace eba {

/// A decoded frame: the type byte plus the raw payload bytes.
struct Frame {
  uint8_t type = 0;
  std::string payload;
};

/// Frames `payload` under `type` (AppendFrame: the WAL record encoding
/// verbatim).
std::string EncodeFrame(uint8_t type, std::string_view payload);

/// Blocking frame reader over one Connection.
///
/// Error contract (what the server's per-connection loop keys on):
///   - OK: one complete, CRC-verified frame.
///   - NotFound: the peer closed cleanly at a frame boundary.
///   - InvalidArgument: a malformed frame — truncated mid-header or
///     mid-payload, payload length above `max_payload`, or CRC mismatch.
///     The stream is unsynchronized from here on; the only safe move is to
///     drop the connection.
///   - anything else: transport failure from Connection::Read.
class FrameReader {
 public:
  FrameReader(Connection* conn, size_t max_payload)
      : conn_(conn), max_payload_(max_payload) {}

  StatusOr<Frame> Next();

 private:
  /// Reads exactly `n` bytes. `clean_eof_ok`: EOF before the first byte is
  /// a frame-boundary close (NotFound), EOF mid-read is a truncated frame.
  Status ReadExact(char* buf, size_t n, bool clean_eof_ok);

  Connection* conn_;
  size_t max_payload_;
};

}  // namespace eba

#endif  // EBA_NET_FRAME_H_
