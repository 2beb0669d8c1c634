#include "persist/wal.h"

#include <cstdio>
#include <utility>

#include "persist/coding.h"
#include "persist/crc32c.h"

namespace gsgrow::persist {

namespace {

// crc(4) + len(4) + type(1).
constexpr size_t kWalHeaderBytes = 9;

}  // namespace

Result<WalWriter> WalWriter::Open(const std::string& path) {
  Result<AppendOnlyFile> file = AppendOnlyFile::Open(path);
  if (!file.ok()) return file.status();
  WalWriter writer;
  writer.file_ = std::move(*file);
  return writer;
}

void FrameWalRecord(uint8_t type, std::string_view payload, std::string* out) {
  uint32_t crc = Crc32cExtend(0, &type, 1);
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  PutFixed32(out, MaskCrc(crc));
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  out->push_back(static_cast<char>(type));
  out->append(payload.data(), payload.size());
}

Status WalWriter::Append(uint8_t type, std::string_view payload) {
  scratch_.clear();
  FrameWalRecord(type, payload, &scratch_);
  return file_.Append(scratch_);
}

Status WalWriter::AppendFramed(std::string_view records) {
  return file_.Append(records);
}

Status WalWriter::Sync() { return file_.Sync(); }

Status WalWriter::Close() { return file_.Close(); }

Result<WalReadResult> DecodeWalBytes(std::string_view data,
                                     bool tolerate_torn_tail,
                                     const std::string& label) {
  WalReadResult result;
  size_t offset = 0;
  while (offset < data.size()) {
    const size_t record_start = offset;
    const auto torn = [&](const char* what) -> Result<WalReadResult> {
      if (tolerate_torn_tail) {
        std::fprintf(stderr,
                     "gsgrow wal: dropping torn tail of %s at offset %zu "
                     "(%s; %zu bytes discarded)\n",
                     label.c_str(), record_start, what,
                     data.size() - record_start);
        result.torn_tail = true;
        result.valid_bytes = record_start;
        return result;
      }
      return Status::Corruption(label + ": truncated record at offset " +
                                std::to_string(record_start) + " (" + what +
                                ")");
    };
    if (data.size() - offset < kWalHeaderBytes) {
      return torn("incomplete header");
    }
    const uint32_t stored_crc = DecodeFixed32(data.data() + offset);
    const uint32_t length = DecodeFixed32(data.data() + offset + 4);
    const uint8_t type = static_cast<uint8_t>(data[offset + 8]);
    if (data.size() - offset - kWalHeaderBytes < length) {
      // The record claims more bytes than the file holds: the torn-write
      // shape (a partially persisted payload, or a partially persisted
      // length field that happens to decode large).
      return torn("payload extends past end of file");
    }
    const char* body = data.data() + offset + kWalHeaderBytes;
    uint32_t crc = Crc32cExtend(0, &type, 1);
    crc = Crc32cExtend(crc, body, length);
    if (MaskCrc(crc) != stored_crc) {
      return Status::Corruption(label + ": checksum mismatch at offset " +
                                std::to_string(record_start));
    }
    result.records.push_back(WalRecord{type, std::string(body, length)});
    offset += kWalHeaderBytes + length;
  }
  result.valid_bytes = offset;
  return result;
}

Result<WalReadResult> ReadWalFile(const std::string& path,
                                  bool tolerate_torn_tail) {
  Result<std::string> data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  return DecodeWalBytes(*data, tolerate_torn_tail, path);
}

}  // namespace gsgrow::persist
