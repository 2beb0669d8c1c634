#include "io/spmf_format.h"

#include <fstream>
#include <sstream>

#include "persist/file_io.h"
#include "util/string_util.h"

namespace gsgrow {

Result<SequenceDatabase> ParseSpmfDatabase(const std::string& content) {
  std::vector<Sequence> sequences;
  std::istringstream in(content);
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::vector<EventId> events;
    size_t items_in_current_itemset = 0;
    bool terminated = false;
    for (const std::string& token : Split(trimmed, " \t")) {
      int64_t value;
      // ParseInt64 also rejects values outside int64 range, so a token of
      // arbitrary length cannot wrap into a valid-looking item.
      if (!ParseInt64(token, &value)) {
        return Status::Corruption("line " + std::to_string(line_number) +
                                  ": invalid integer token '" + token + "'");
      }
      if (value == -2) {
        terminated = true;
        break;
      }
      if (value == -1) {
        if (items_in_current_itemset == 0) {
          return Status::Corruption("line " + std::to_string(line_number) +
                                    ": empty itemset");
        }
        items_in_current_itemset = 0;
        continue;
      }
      if (value < 0) {
        return Status::Corruption("line " + std::to_string(line_number) +
                                  ": negative item " + std::to_string(value));
      }
      // Items at or above the sentinel would silently truncate in the
      // EventId cast (or collide with kNoEvent) and corrupt mining results.
      if (value >= static_cast<int64_t>(kNoEvent)) {
        return Status::OutOfRange(
            "line " + std::to_string(line_number) + ": item " +
            std::to_string(value) + " exceeds the supported event-id range");
      }
      if (++items_in_current_itemset > 1) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": multi-item itemsets are not supported by this event-sequence "
            "miner");
      }
      if (events.size() >= static_cast<size_t>(kNoPosition)) {
        return Status::OutOfRange("line " + std::to_string(line_number) +
                                  ": sequence exceeds the supported length");
      }
      events.push_back(static_cast<EventId>(value));
    }
    if (!terminated) {
      return Status::Corruption("line " + std::to_string(line_number) +
                                ": missing -2 terminator");
    }
    sequences.emplace_back(std::move(events));
  }
  return SequenceDatabase(std::move(sequences));
}

std::string WriteSpmfDatabase(const SequenceDatabase& db) {
  std::string out;
  for (const Sequence& s : db.sequences()) {
    for (EventId e : s) {
      out += std::to_string(e);
      out += " -1 ";
    }
    out += "-2\n";
  }
  return out;
}

Result<SequenceDatabase> ReadSpmfDatabaseFile(const std::string& path) {
  // Every failure to read the corpus, a missing file included, is IOError
  // naming the path (a directory fails its first read with EISDIR).
  Result<std::string> content = persist::ReadFileToString(path);
  if (!content.ok()) return Status::IOError(content.status().message());
  return ParseSpmfDatabase(*content);
}

Status WriteSpmfDatabaseFile(const SequenceDatabase& db,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << WriteSpmfDatabase(db);
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

}  // namespace gsgrow
