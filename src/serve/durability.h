// Serving-schema layer of the durability stack (DESIGN.md §10): what the
// WAL records and checkpoint pages of a durable MiningService MEAN.
//
// The generic framing lives in src/persist (wal.h, checkpoint.h); this file
// owns the payload schemas and the durable-directory layout:
//
//   <dir>/CHECKPOINT        paged spill of the corpus at one epoch
//   <dir>/wal-<seq>.log     record segments; the checkpoint's meta page
//                           names the first segment NOT covered by it
//
// WAL record types — every serving mutation, plus the epoch trajectory:
//
//   kIntern        (id, name)          a dictionary entry came into being
//                                      (bulk Ingest only)
//   kAddSequence   (seq, fresh, events)  AppendSequence; seq pins the id
//                                      the replay must reassign
//   kAppendTo      (seq, fresh, events)  AppendToSequence
//   kEpochAdvance  (epoch)             a Snapshot() observed new data; the
//                                      replayed epoch counter reproduces
//                                      the pre-crash trajectory exactly
//
// A live append is ONE record: the names it interned ride inside (`fresh`),
// so the mutation is atomic under the record CRC — a crash can only drop
// whole mutations, never leave a dictionary entry without its sequence.
// kIntern exists for Ingest, whose bulk dictionary does not belong to any
// single sequence; a crash mid-ingest legitimately recovers a prefix of
// the load. Ingest writes its records in runs of about 1 MiB, each record
// byte-identical to one written alone.
//
// Checkpoint pages: one kMeta page first (version, epoch, wal segment,
// counts), then kDict pages (contiguous runs of names) and kSequences
// pages (contiguous runs of sequences), split at ~256 KiB so no single
// page checksum covers an unbounded payload. The checkpoint spills the
// SOURCE corpus (dictionary + raw event sequences), each sequence read
// back from the incremental index — the service's only copy of the corpus
// — by IncrementalInvertedIndex::SequenceEvents. The frozen index blocks
// are a pure function of it and are rebuilt on recovery through
// AddSequence, the path live appends take (a bulk Ingest freezes through
// AddCorpus, which tests/serve pins to AddSequence) — the crash-replay
// differential pins the rebuilt surface byte-identical, and the spill stays
// immune to posting-encoding changes.

#ifndef GSGROW_SERVE_DURABILITY_H_
#define GSGROW_SERVE_DURABILITY_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/event_dictionary.h"
#include "core/types.h"
#include "persist/wal.h"
#include "serve/incremental_index.h"
#include "util/status.h"

namespace gsgrow::serve {

// ---------------------------------------------------------------------------
// Directory layout.

[[nodiscard]] std::string CheckpointPath(const std::string& dir);
[[nodiscard]] std::string WalSegmentPath(const std::string& dir,
                                         uint64_t segment);

/// Segment numbers of every wal-<seq>.log in `dir`, ascending. Files that
/// do not match the segment naming scheme are ignored.
Result<std::vector<uint64_t>> ListWalSegments(const std::string& dir);

// ---------------------------------------------------------------------------
// WAL record schema.

enum class LogRecordType : uint8_t {
  kIntern = 1,
  kAddSequence = 2,
  kAppendTo = 3,
  kEpochAdvance = 4,
};

/// One decoded serving-log record (fields beyond `type` are valid per the
/// table above).
struct LogRecord {
  LogRecordType type = LogRecordType::kIntern;
  EventId event_id = kNoEvent;       // kIntern
  std::string name;                  // kIntern
  SeqId seq = 0;                     // kAddSequence / kAppendTo
  /// Names this mutation interned, in id order (ids are dense).
  std::vector<std::pair<EventId, std::string>> fresh;
  std::vector<EventId> events;       // kAddSequence / kAppendTo
  uint64_t epoch = 0;                // kEpochAdvance
};

void EncodeInternRecord(EventId id, std::string_view name, std::string* out);
void EncodeSequenceRecord(
    SeqId seq,
    std::span<const std::pair<EventId, const std::string*>> fresh,
    std::span<const EventId> events, std::string* out);
void EncodeEpochRecord(uint64_t epoch, std::string* out);

/// Decodes one framed record's payload. kCorruption on unknown types or
/// malformed payloads (a CRC-valid record with an undecodable body means
/// the file was written by something else — never trust it).
Result<LogRecord> DecodeLogRecord(const persist::WalRecord& record);

// ---------------------------------------------------------------------------
// Checkpoint schema.

/// Decoded checkpoint: the full corpus + the log position it covers.
struct CheckpointState {
  uint64_t epoch = 0;
  /// First WAL segment NOT covered: recovery replays segments >= this.
  uint64_t wal_segment = 0;
  /// Dictionary names in id order (ids are dense).
  std::vector<std::string> names;
  std::vector<std::vector<EventId>> sequences;
  uint64_t total_events = 0;
};

/// Spills `dict` and every sequence of `index` (+ the epoch / wal
/// position) as the checkpoint of `dir`, atomically replacing any previous
/// one. Unfrozen tails are included: a sequence is spilled as it stands.
Status WriteServeCheckpoint(const std::string& dir,
                            const EventDictionary& dict,
                            const IncrementalInvertedIndex& index,
                            uint64_t epoch, uint64_t wal_segment);

/// Reads and fully validates the checkpoint of `dir`. NotFound when no
/// checkpoint exists; kCorruption on any framing or schema violation
/// (counts in the meta page must match the pages exactly).
Result<CheckpointState> ReadServeCheckpoint(const std::string& dir);

}  // namespace gsgrow::serve

#endif  // GSGROW_SERVE_DURABILITY_H_
