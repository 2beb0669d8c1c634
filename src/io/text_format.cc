#include "io/text_format.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "util/string_util.h"

namespace gsgrow {

Result<SequenceDatabase> ParseTextDatabase(const std::string& content) {
  // Positions are 32-bit; a longer sequence would alias positions and
  // corrupt every support computation downstream.
  return ParseTextDatabase(content, static_cast<size_t>(kNoPosition));
}

Result<SequenceDatabase> ParseTextDatabase(std::string_view content,
                                           size_t max_length) {
  const auto is_delimiter = [](char c) { return c == ' ' || c == '\t'; };
  SequenceDatabaseBuilder builder;
  // Lines and tokens are views into `content`; each token is interned
  // straight into the id scratch, which is copied out at its exact size.
  std::vector<EventId> ids;
  size_t line_number = 0;
  size_t line_start = 0;
  while (line_start < content.size()) {
    size_t line_end = content.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = content.size();
    const std::string_view line =
        Trim(content.substr(line_start, line_end - line_start));
    line_start = line_end + 1;
    ++line_number;
    if (line.empty() || line.front() == '#') continue;
    ids.clear();
    size_t i = 0;
    while (i < line.size()) {
      const size_t token_start = i;
      while (i < line.size() && !is_delimiter(line[i])) ++i;
      if (ids.size() + 1 >= max_length) {
        return Status::OutOfRange("line " + std::to_string(line_number) +
                                  ": sequence exceeds the supported length");
      }
      ids.push_back(
          builder.InternEvent(line.substr(token_start, i - token_start)));
      while (i < line.size() && is_delimiter(line[i])) ++i;
    }
    builder.AddSequenceIds(std::vector<EventId>(ids.begin(), ids.end()));
  }
  return builder.Build();
}

std::string WriteTextDatabase(const SequenceDatabase& db) {
  std::string out;
  for (const Sequence& s : db.sequences()) {
    for (size_t i = 0; i < s.length(); ++i) {
      if (i > 0) out.push_back(' ');
      out += db.dictionary().Name(s[static_cast<Position>(i)]);
    }
    out.push_back('\n');
  }
  return out;
}

Result<SequenceDatabase> ReadTextDatabaseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseTextDatabase(buffer.str());
}

Status WriteTextDatabaseFile(const SequenceDatabase& db,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << WriteTextDatabase(db);
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

}  // namespace gsgrow
