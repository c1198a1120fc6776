#include "net/frame.h"

namespace eba {

std::string EncodeFrame(uint8_t type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(&out, type, {payload});
  return out;
}

Status FrameReader::ReadExact(char* buf, size_t n, bool clean_eof_ok) {
  size_t off = 0;
  while (off < n) {
    EBA_ASSIGN_OR_RETURN(const size_t got, conn_->Read(buf + off, n - off));
    if (got == 0) {
      if (clean_eof_ok && off == 0) {
        return Status::NotFound("connection closed");
      }
      return Status::InvalidArgument("truncated frame: peer closed after " +
                                     std::to_string(off) + " of " +
                                     std::to_string(n) + " bytes");
    }
    off += got;
  }
  return Status::OK();
}

StatusOr<Frame> FrameReader::Next() {
  char header[kFrameHeaderBytes];
  EBA_RETURN_IF_ERROR(
      ReadExact(header, kFrameHeaderBytes, /*clean_eof_ok=*/true));
  ByteReader in(std::string_view(header, kFrameHeaderBytes));
  uint32_t payload_len = 0;
  uint32_t want_crc = 0;
  Frame frame;
  // The header is complete, so these reads cannot underrun.
  in.GetU32(&payload_len);
  in.GetU32(&want_crc);
  in.GetU8(&frame.type);
  if (payload_len > max_payload_) {
    return Status::InvalidArgument(
        "oversized frame: " + std::to_string(payload_len) +
        " payload bytes exceeds the " + std::to_string(max_payload_) +
        "-byte limit");
  }
  frame.payload.resize(payload_len);
  if (payload_len > 0) {
    EBA_RETURN_IF_ERROR(
        ReadExact(frame.payload.data(), payload_len, /*clean_eof_ok=*/false));
  }
  if (FrameCrc(frame.type, frame.payload) != want_crc) {
    return Status::InvalidArgument("frame CRC mismatch");
  }
  return frame;
}

}  // namespace eba
