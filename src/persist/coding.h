// Fixed-width little-endian encode/decode helpers for the on-disk formats
// (WAL records, checkpoint pages — DESIGN.md §10).
//
// All multi-byte integers in gsgrow's durable files are little-endian and
// fixed-width: the formats are record-scanned, never memory-mapped, so the
// simplicity of fixed widths beats varint size wins, and explicit byte
// assembly keeps the files portable across host endianness.
//
// The Get* readers take a (data, size, offset) triple and FAIL (return
// false) instead of reading past the end — decode paths run against
// arbitrary possibly-corrupt bytes and must never walk off the buffer.

#ifndef GSGROW_PERSIST_CODING_H_
#define GSGROW_PERSIST_CODING_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace gsgrow::persist {

inline void PutFixed32(std::string* dst, uint32_t v) {
  const char bytes[4] = {
      static_cast<char>(v & 0xFF), static_cast<char>((v >> 8) & 0xFF),
      static_cast<char>((v >> 16) & 0xFF), static_cast<char>((v >> 24) & 0xFF)};
  dst->append(bytes, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  PutFixed32(dst, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutFixed32(dst, static_cast<uint32_t>(v >> 32));
}

/// Stores `values` as consecutive fixed-width little-endian words at `dst`,
/// which must have room for values.size() * 4 bytes.
inline void EncodeFixed32Array(std::span<const uint32_t> values, char* dst) {
  if constexpr (std::endian::native == std::endian::little) {
    if (!values.empty()) std::memcpy(dst, values.data(), values.size_bytes());
  } else {
    for (const uint32_t v : values) {
      dst[0] = static_cast<char>(v & 0xFF);
      dst[1] = static_cast<char>((v >> 8) & 0xFF);
      dst[2] = static_cast<char>((v >> 16) & 0xFF);
      dst[3] = static_cast<char>((v >> 24) & 0xFF);
      dst += 4;
    }
  }
}

/// u32 length prefix + raw bytes.
inline void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutFixed32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

[[nodiscard]] inline uint32_t DecodeFixed32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

[[nodiscard]] inline uint64_t DecodeFixed64(const char* p) {
  return static_cast<uint64_t>(DecodeFixed32(p)) |
         (static_cast<uint64_t>(DecodeFixed32(p + 4)) << 32);
}

/// Bounds-checked readers: advance *offset past the value on success,
/// return false (leaving *offset untouched) when the buffer is too short.
[[nodiscard]] inline bool GetFixed32(std::string_view data, size_t* offset,
                                     uint32_t* out) {
  if (*offset > data.size() || data.size() - *offset < 4) return false;
  *out = DecodeFixed32(data.data() + *offset);
  *offset += 4;
  return true;
}

[[nodiscard]] inline bool GetFixed64(std::string_view data, size_t* offset,
                                     uint64_t* out) {
  if (*offset > data.size() || data.size() - *offset < 8) return false;
  *out = DecodeFixed64(data.data() + *offset);
  *offset += 8;
  return true;
}

[[nodiscard]] inline bool GetLengthPrefixed(std::string_view data,
                                            size_t* offset,
                              std::string_view* out) {
  size_t pos = *offset;
  uint32_t len = 0;
  if (!GetFixed32(data, &pos, &len)) return false;
  if (data.size() - pos < len) return false;
  *out = data.substr(pos, len);
  *offset = pos + len;
  return true;
}

}  // namespace gsgrow::persist

#endif  // GSGROW_PERSIST_CODING_H_
