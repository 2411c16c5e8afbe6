// The byte codec shared by every persisted or shipped format: the v2
// model file (core/serialization.cc) and its FTPT arena section
// (tpt/frozen_tpt.cc), WAL segments (io/wal.cc) and the wire protocol
// (net/protocol.cc). Fixed-width integers, IEEE doubles and
// length-prefixed strings, plus a bounds-checked read cursor, plus the
// one CRC frame the WAL and the network both use:
//
//   frame   u32 payload_length | u32 crc32(payload) | payload bytes
//
// Byte order note: values are memcpy'd in host order. Every supported
// host (x86-64, aarch64) is little-endian, so files and frames are
// little-endian; a mismatched peer or file fails its CRC or magic
// checks loudly rather than being misinterpreted.

#ifndef HPM_COMMON_CODEC_H_
#define HPM_COMMON_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/crc32.h"

namespace hpm::codec {

inline void PutBytes(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) { PutBytes(out, &v, 4); }
inline void PutI32(std::string* out, int32_t v) { PutBytes(out, &v, 4); }
inline void PutU64(std::string* out, uint64_t v) { PutBytes(out, &v, 8); }
inline void PutI64(std::string* out, int64_t v) { PutBytes(out, &v, 8); }
inline void PutF64(std::string* out, double v) { PutBytes(out, &v, 8); }

inline void PutString(std::string* out, const std::string& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  out->append(v);
}

/// Sequential reader over encoded bytes. Every getter returns false (and
/// poisons the cursor) on underrun, leaving its output untouched, so
/// decoders can chain reads and check once at the end.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : data_(data), size_(size) {}
  explicit Cursor(std::string_view bytes)
      : Cursor(bytes.data(), bytes.size()) {}

  bool U8(uint8_t* v) { return Bytes(v, 1); }
  bool U32(uint32_t* v) { return Bytes(v, 4); }
  bool I32(int32_t* v) { return Bytes(v, 4); }
  bool U64(uint64_t* v) { return Bytes(v, 8); }
  bool I64(int64_t* v) { return Bytes(v, 8); }
  bool F64(double* v) { return Bytes(v, 8); }

  /// Copies the next `n` raw bytes into `out`.
  bool Bytes(void* out, size_t n) {
    if (!Need(n)) return false;
    if (n > 0) std::memcpy(out, data_ + pos_, n);  // `out` may be null at 0
    pos_ += n;
    return true;
  }

  /// Reads a length-prefixed string of at most `max_len` bytes (a bound
  /// on attacker-controlled lengths, not a protocol limit).
  bool String(std::string* v, size_t max_len = 1 << 20) {
    uint32_t len = 0;
    if (!U32(&len)) return false;
    if (len > max_len || !Need(len)) {
      ok_ = false;
      return false;
    }
    v->assign(data_ + pos_, len);
    pos_ += len;
    return true;
  }

  /// True when every read so far succeeded.
  bool ok() const { return ok_; }

  /// True when the bytes were consumed exactly.
  bool done() const { return ok_ && pos_ == size_; }

  /// Bytes consumed so far.
  size_t pos() const { return pos_; }

  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Bytes in a frame header: u32 payload length + u32 crc32(payload).
constexpr size_t kFrameHeaderBytes = 8;

/// `payload` framed as header + payload, ready to append or send.
inline std::string EncodeFrame(std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload.data(), payload.size()));
  frame.append(payload);
  return frame;
}

/// A decoded frame header. Bounding `length` and telling a torn tail
/// from corruption are the caller's: the WAL and the network differ.
struct FrameHeader {
  uint32_t length = 0;
  uint32_t crc = 0;

  /// True when the `length` bytes at `payload` match the stored CRC.
  bool Verifies(const char* payload) const {
    return Crc32(payload, static_cast<size_t>(length)) == crc;
  }
};

/// Decodes the kFrameHeaderBytes header bytes at `bytes`.
inline FrameHeader ParseFrameHeader(const char* bytes) {
  FrameHeader header;
  std::memcpy(&header.length, bytes, sizeof(header.length));
  std::memcpy(&header.crc, bytes + 4, sizeof(header.crc));
  return header;
}

}  // namespace hpm::codec

#endif  // HPM_COMMON_CODEC_H_
