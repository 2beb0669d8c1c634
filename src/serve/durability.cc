#include "serve/durability.h"

#include <algorithm>
#include <cstdio>

#include "persist/checkpoint.h"
#include "persist/coding.h"

namespace gsgrow::serve {

namespace {

using persist::EncodeFixed32Array;
using persist::GetFixed32;
using persist::GetFixed64;
using persist::GetLengthPrefixed;
using persist::PutFixed32;
using persist::PutFixed64;
using persist::PutLengthPrefixed;

constexpr std::string_view kWalPrefix = "wal-";
constexpr std::string_view kWalSuffix = ".log";
constexpr uint32_t kCheckpointFormatVersion = 1;

// Checkpoint page types (< persist::kCheckpointFooterType).
constexpr uint8_t kMetaPage = 1;
constexpr uint8_t kDictPage = 2;
constexpr uint8_t kSequencesPage = 3;

// Dict / sequence sections split into pages around this payload size, so a
// page checksum never covers an unbounded byte run.
constexpr size_t kPageTargetBytes = 256 * 1024;

Status SchemaCorruption(const std::string& what) {
  return Status::Corruption("serve checkpoint: " + what);
}

}  // namespace

std::string CheckpointPath(const std::string& dir) {
  return dir + "/CHECKPOINT";
}

std::string WalSegmentPath(const std::string& dir, uint64_t segment) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu",
                static_cast<unsigned long long>(segment));
  return dir + "/" + std::string(kWalPrefix) + buf + std::string(kWalSuffix);
}

Result<std::vector<uint64_t>> ListWalSegments(const std::string& dir) {
  Result<std::vector<std::string>> names = persist::ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<uint64_t> segments;
  for (const std::string& name : names.value()) {
    if (name.size() <= kWalPrefix.size() + kWalSuffix.size()) continue;
    if (name.compare(0, kWalPrefix.size(), kWalPrefix) != 0) continue;
    if (name.compare(name.size() - kWalSuffix.size(), kWalSuffix.size(),
                     kWalSuffix) != 0) {
      continue;
    }
    const std::string digits = name.substr(
        kWalPrefix.size(), name.size() - kWalPrefix.size() - kWalSuffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    segments.push_back(std::stoull(digits));
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

// ---------------------------------------------------------------------------
// WAL records.

void EncodeInternRecord(EventId id, std::string_view name, std::string* out) {
  out->clear();
  PutFixed32(out, id);
  PutLengthPrefixed(out, name);
}

void EncodeSequenceRecord(
    SeqId seq,
    std::span<const std::pair<EventId, const std::string*>> fresh,
    std::span<const EventId> events, std::string* out) {
  out->clear();
  PutFixed32(out, seq);
  PutFixed32(out, static_cast<uint32_t>(fresh.size()));
  for (const auto& [id, name] : fresh) {
    PutFixed32(out, id);
    PutLengthPrefixed(out, *name);
  }
  PutFixed32(out, static_cast<uint32_t>(events.size()));
  // The events are the bulk of the record: size the string once and store
  // them as fixed-width little-endian words in one pass.
  const size_t base = out->size();
  out->resize(base + events.size() * sizeof(uint32_t));
  EncodeFixed32Array(events, out->data() + base);
}

void EncodeEpochRecord(uint64_t epoch, std::string* out) {
  out->clear();
  PutFixed64(out, epoch);
}

Result<LogRecord> DecodeLogRecord(const persist::WalRecord& record) {
  const auto corrupt = [&](const char* what) {
    return Status::Corruption(std::string("serve wal record: ") + what);
  };
  LogRecord decoded;
  const std::string_view payload = record.payload;
  size_t offset = 0;
  switch (record.type) {
    case static_cast<uint8_t>(LogRecordType::kIntern): {
      decoded.type = LogRecordType::kIntern;
      std::string_view name;
      if (!GetFixed32(payload, &offset, &decoded.event_id) ||
          !GetLengthPrefixed(payload, &offset, &name) ||
          offset != payload.size()) {
        return corrupt("malformed intern payload");
      }
      decoded.name = std::string(name);
      return decoded;
    }
    case static_cast<uint8_t>(LogRecordType::kAddSequence):
    case static_cast<uint8_t>(LogRecordType::kAppendTo): {
      decoded.type =
          record.type == static_cast<uint8_t>(LogRecordType::kAddSequence)
              ? LogRecordType::kAddSequence
              : LogRecordType::kAppendTo;
      uint32_t fresh_count = 0;
      if (!GetFixed32(payload, &offset, &decoded.seq) ||
          !GetFixed32(payload, &offset, &fresh_count)) {
        return corrupt("malformed sequence payload");
      }
      // Cap the reserve: a hostile count fails the per-entry decode below
      // without first asking the allocator for it.
      decoded.fresh.reserve(std::min<uint32_t>(fresh_count, 1024));
      for (uint32_t i = 0; i < fresh_count; ++i) {
        uint32_t id = 0;
        std::string_view name;
        if (!GetFixed32(payload, &offset, &id) ||
            !GetLengthPrefixed(payload, &offset, &name)) {
          return corrupt("malformed sequence payload");
        }
        decoded.fresh.emplace_back(id, std::string(name));
      }
      uint32_t count = 0;
      if (!GetFixed32(payload, &offset, &count) ||
          payload.size() - offset != static_cast<size_t>(count) * 4) {
        return corrupt("malformed sequence payload");
      }
      decoded.events.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t e = 0;
        if (!GetFixed32(payload, &offset, &e)) {
          return corrupt("malformed sequence payload");
        }
        decoded.events.push_back(e);
      }
      return decoded;
    }
    case static_cast<uint8_t>(LogRecordType::kEpochAdvance): {
      decoded.type = LogRecordType::kEpochAdvance;
      if (!GetFixed64(payload, &offset, &decoded.epoch) ||
          offset != payload.size()) {
        return corrupt("malformed epoch payload");
      }
      return decoded;
    }
    default:
      return corrupt("unknown record type");
  }
}

// ---------------------------------------------------------------------------
// Checkpoint.

Status WriteServeCheckpoint(const std::string& dir,
                            const EventDictionary& dict,
                            const IncrementalInvertedIndex& index,
                            uint64_t epoch, uint64_t wal_segment) {
  persist::CheckpointWriter writer;

  std::string page;
  PutFixed32(&page, kCheckpointFormatVersion);
  PutFixed64(&page, epoch);
  PutFixed64(&page, wal_segment);
  PutFixed64(&page, index.num_sequences());
  PutFixed64(&page, dict.size());
  PutFixed64(&page, index.total_events());
  writer.AddPage(kMetaPage, page);

  // Dictionary pages: [first_id, count, names...], contiguous runs.
  for (size_t first = 0; first < dict.size();) {
    page.clear();
    size_t count = 0;
    std::string body;
    while (first + count < dict.size() && body.size() < kPageTargetBytes) {
      PutLengthPrefixed(&body,
                        dict.Name(static_cast<EventId>(first + count)));
      ++count;
    }
    PutFixed32(&page, static_cast<uint32_t>(first));
    PutFixed32(&page, static_cast<uint32_t>(count));
    page += body;
    writer.AddPage(kDictPage, page);
    first += count;
  }

  // Sequence pages: [first_seq, count, (len, events...)...].
  const size_t num_sequences = index.num_sequences();
  std::vector<EventId> events;
  for (size_t first = 0; first < num_sequences;) {
    page.clear();
    size_t count = 0;
    std::string body;
    while (first + count < num_sequences &&
           (count == 0 || body.size() < kPageTargetBytes)) {
      index.SequenceEvents(static_cast<SeqId>(first + count), &events);
      PutFixed32(&body, static_cast<uint32_t>(events.size()));
      for (const EventId e : events) PutFixed32(&body, e);
      ++count;
    }
    PutFixed32(&page, static_cast<uint32_t>(first));
    PutFixed32(&page, static_cast<uint32_t>(count));
    page += body;
    writer.AddPage(kSequencesPage, page);
    first += count;
  }

  return writer.WriteTo(CheckpointPath(dir));
}

Result<CheckpointState> ReadServeCheckpoint(const std::string& dir) {
  Result<std::vector<persist::CheckpointPage>> pages =
      persist::ReadCheckpointFile(CheckpointPath(dir));
  if (!pages.ok()) return pages.status();
  if (pages->empty() || (*pages)[0].type != kMetaPage) {
    return SchemaCorruption("first page is not the meta page");
  }

  CheckpointState state;
  uint64_t num_sequences = 0;
  uint64_t dict_size = 0;
  {
    const std::string_view payload = (*pages)[0].payload;
    size_t offset = 0;
    uint32_t version = 0;
    if (!GetFixed32(payload, &offset, &version) ||
        !GetFixed64(payload, &offset, &state.epoch) ||
        !GetFixed64(payload, &offset, &state.wal_segment) ||
        !GetFixed64(payload, &offset, &num_sequences) ||
        !GetFixed64(payload, &offset, &dict_size) ||
        !GetFixed64(payload, &offset, &state.total_events) ||
        offset != payload.size()) {
      return SchemaCorruption("malformed meta page");
    }
    if (version != kCheckpointFormatVersion) {
      return SchemaCorruption("unsupported format version " +
                              std::to_string(version));
    }
  }

  // The meta page's counts are only claims until the section pages bear
  // them out. Every name and every sequence takes at least its 4-byte
  // length word, so reserve no more entries than the pages could encode.
  size_t dict_bytes = 0;
  size_t sequence_bytes = 0;
  for (size_t p = 1; p < pages->size(); ++p) {
    const persist::CheckpointPage& cp = (*pages)[p];
    (cp.type == kDictPage ? dict_bytes : sequence_bytes) += cp.payload.size();
  }
  state.names.reserve(std::min<uint64_t>(dict_size, dict_bytes / 4));
  state.sequences.reserve(
      std::min<uint64_t>(num_sequences, sequence_bytes / 4));
  uint64_t decoded_events = 0;
  for (size_t p = 1; p < pages->size(); ++p) {
    const persist::CheckpointPage& cp = (*pages)[p];
    const std::string_view payload = cp.payload;
    size_t offset = 0;
    uint32_t first = 0;
    uint32_t count = 0;
    if (!GetFixed32(payload, &offset, &first) ||
        !GetFixed32(payload, &offset, &count)) {
      return SchemaCorruption("malformed section page header");
    }
    if (cp.type == kDictPage) {
      if (first != state.names.size()) {
        return SchemaCorruption("dictionary pages out of order");
      }
      for (uint32_t i = 0; i < count; ++i) {
        std::string_view name;
        if (!GetLengthPrefixed(payload, &offset, &name)) {
          return SchemaCorruption("malformed dictionary page");
        }
        state.names.emplace_back(name);
      }
    } else if (cp.type == kSequencesPage) {
      if (first != state.sequences.size()) {
        return SchemaCorruption("sequence pages out of order");
      }
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t len = 0;
        if (!GetFixed32(payload, &offset, &len) ||
            payload.size() - offset < static_cast<size_t>(len) * 4) {
          return SchemaCorruption("malformed sequence page");
        }
        std::vector<EventId> events;
        events.reserve(len);
        for (uint32_t k = 0; k < len; ++k) {
          uint32_t e = 0;
          if (!GetFixed32(payload, &offset, &e)) {
            return SchemaCorruption("malformed sequence page");
          }
          events.push_back(e);
        }
        decoded_events += len;
        state.sequences.push_back(std::move(events));
      }
    } else {
      return SchemaCorruption("unknown page type");
    }
    if (offset != payload.size()) {
      return SchemaCorruption("trailing bytes in section page");
    }
  }

  if (state.names.size() != dict_size) {
    return SchemaCorruption("dictionary entry count mismatch");
  }
  if (state.sequences.size() != num_sequences) {
    return SchemaCorruption("sequence count mismatch");
  }
  if (decoded_events != state.total_events) {
    return SchemaCorruption("event total mismatch");
  }
  return state;
}

}  // namespace gsgrow::serve
