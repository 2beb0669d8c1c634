#include "io/text_format.h"

#include <cctype>
#include <cstring>
#include <fstream>
#include <vector>

#include "persist/file_io.h"

namespace gsgrow {

Result<SequenceDatabase> ParseTextDatabase(const std::string& content) {
  // Positions are 32-bit; a longer sequence would alias positions and
  // corrupt every support computation downstream.
  return ParseTextDatabase(content, static_cast<size_t>(kNoPosition));
}

Result<SequenceDatabase> ParseTextDatabase(std::string_view content,
                                           size_t max_length) {
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  const auto is_delimiter = [](char c) { return c == ' ' || c == '\t'; };
  std::vector<Sequence> sequences;
  EventDictionary dictionary;
  std::vector<std::string_view> tokens;  // the current line's, reused
  const char* const text = content.data();
  size_t line_number = 0;
  size_t line_start = 0;
  while (line_start < content.size()) {
    ++line_number;
    const void* newline = std::memchr(text + line_start, '\n',
                                      content.size() - line_start);
    const size_t line_end =
        newline == nullptr ? content.size()
                           : static_cast<size_t>(
                                 static_cast<const char*>(newline) - text);
    // The line's events lie in [begin, end): the line trimmed of
    // surrounding whitespace.
    size_t begin = line_start;
    size_t end = line_end;
    line_start = line_end + 1;
    while (begin < end && is_space(text[begin])) ++begin;
    while (end > begin && is_space(text[end - 1])) --end;
    if (begin == end || text[begin] == '#') continue;
    // One scan splits the line into views, so the ids land in a vector of
    // its exact size; an over-long line fails before anything is interned.
    tokens.clear();
    for (size_t i = begin; i < end;) {
      if (tokens.size() + 1 >= max_length) {
        return Status::OutOfRange("line " + std::to_string(line_number) +
                                  ": sequence exceeds the supported length");
      }
      const size_t token_start = i;
      while (i < end && !is_delimiter(text[i])) ++i;
      tokens.emplace_back(text + token_start, i - token_start);
      while (i < end && is_delimiter(text[i])) ++i;
    }
    std::vector<EventId> ids;
    ids.reserve(tokens.size());
    for (const std::string_view token : tokens) {
      if (token.size() > kMaxEventNameBytes) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) + ": event name of " +
            std::to_string(token.size()) + " bytes exceeds the " +
            std::to_string(kMaxEventNameBytes) + "-byte limit");
      }
      ids.push_back(dictionary.Intern(token));
    }
    sequences.emplace_back(std::move(ids));
  }
  return SequenceDatabase(std::move(sequences), std::move(dictionary));
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
  // Every failure to read the corpus, a missing file included, is IOError
  // naming the path (a directory fails its first read with EISDIR).
  Result<std::string> content = persist::ReadFileToString(path);
  if (!content.ok()) return Status::IOError(content.status().message());
  return ParseTextDatabase(*content);
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
