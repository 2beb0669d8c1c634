// Write-ahead log framing (DESIGN.md §10).
//
// A WAL file is a flat run of records:
//
//   [masked crc32c : u32][payload length : u32][type : u8][payload ...]
//
// with the checksum taken over type + payload (little-endian fields —
// persist/coding.h). The framing layer knows nothing about what the
// payloads mean; serve/durability.h owns the serving-schema record types.
//
// Read-side contract, the heart of the crash story:
//
//  * A record that extends past end-of-file is a TORN TAIL — the one write
//    a crash can legitimately cut in half. With tolerate_torn_tail (the
//    final log segment), the torn record is dropped with a warning and the
//    intact prefix is returned; without it (a non-final segment, which a
//    checkpoint rotation fully synced before retiring), the same bytes are
//    Status(kCorruption).
//  * A COMPLETE record whose checksum mismatches is always kCorruption —
//    that is a bit flip, not a crash artifact, and silently dropping it
//    would serve wrong answers.

#ifndef GSGROW_PERSIST_WAL_H_
#define GSGROW_PERSIST_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "persist/file_io.h"
#include "util/status.h"

namespace gsgrow::persist {

/// One decoded WAL record.
struct WalRecord {
  uint8_t type = 0;
  std::string payload;
};

/// Appends one record, framed as above, to `out`: the exact bytes
/// WalWriter::Append writes for it.
void FrameWalRecord(uint8_t type, std::string_view payload, std::string* out);

/// Appends framed records to one log file. Writes go straight to the fd
/// (no user-space buffer): a killed process loses at most the record the
/// kernel never saw, and Sync() is the only additional durability point.
class WalWriter {
 public:
  /// Opens `path` for appending (created if missing; an existing log is
  /// continued at its end).
  static Result<WalWriter> Open(const std::string& path);

  WalWriter() = default;

  /// Appends one framed record. On failure nothing is guaranteed appended
  /// and the caller must treat the log as ended at the last Sync().
  Status Append(uint8_t type, std::string_view payload);

  /// Appends a run of records already framed by FrameWalRecord, in one
  /// write loop. On failure any prefix of them may have been appended.
  Status AppendFramed(std::string_view records);

  /// Forces every appended record to stable storage.
  Status Sync();

  Status Close();

  bool is_open() const { return file_.is_open(); }

  /// File offset after the last appended record.
  uint64_t offset() const { return file_.offset(); }

 private:
  AppendOnlyFile file_;
  std::string scratch_;  // reused frame buffer
};

/// Outcome of scanning one WAL file.
struct WalReadResult {
  std::vector<WalRecord> records;
  /// True when a trailing incomplete record was dropped (only possible with
  /// tolerate_torn_tail).
  bool torn_tail = false;
  /// Offset of the first byte NOT consumed into `records` (== file size for
  /// a clean log; the torn tail starts here otherwise).
  uint64_t valid_bytes = 0;
};

/// Scans every record of the WAL file at `path`. See the file comment for
/// the torn-tail / corruption contract. NotFound when the file is absent.
Result<WalReadResult> ReadWalFile(const std::string& path,
                                  bool tolerate_torn_tail);

/// Decodes records from in-memory log bytes (the file-reading path above,
/// and the fault-injection tests, share this).
Result<WalReadResult> DecodeWalBytes(std::string_view data,
                                     bool tolerate_torn_tail,
                                     const std::string& label);

}  // namespace gsgrow::persist

#endif  // GSGROW_PERSIST_WAL_H_
