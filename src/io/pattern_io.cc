#include "io/pattern_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/string_util.h"

namespace gsgrow {

void AppendPatternLine(const PatternRow& row,
                       const EventDictionary& dictionary, std::string* out) {
  char digits[24];
  const char* end =
      std::to_chars(digits, digits + sizeof(digits), row.support).ptr;
  out->append(digits, static_cast<size_t>(end - digits));
  out->push_back('\t');
  for (size_t i = 0; i < row.events.size(); ++i) {
    if (i > 0) out->push_back(' ');
    dictionary.AppendName(row.events[i], out);
  }
  if (!row.annotations.empty()) {
    *out += "\t|\t";
    AppendAnnotations(row.annotations, out);
  }
}

std::string WritePatterns(const PatternTable& rows,
                          const EventDictionary& dictionary) {
  std::string out = "# support\tpattern\n";
  for (const PatternRow row : rows) {
    AppendPatternLine(row, dictionary, &out);
    out.push_back('\n');
  }
  return out;
}

Result<PatternTable> ParsePatterns(const std::string& content,
                                   EventDictionary* dictionary) {
  PatternTable rows;
  std::vector<EventId> events;
  std::istringstream in(content);
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::vector<std::string> tokens = Split(trimmed, " \t");
    if (tokens.size() < 2) {
      return Status::Corruption("line " + std::to_string(line_number) +
                                ": expected 'support event...'");
    }
    int64_t support;
    if (!ParseInt64(tokens[0], &support) || support < 0) {
      return Status::Corruption("line " + std::to_string(line_number) +
                                ": bad support '" + tokens[0] + "'");
    }
    // An optional "|" token separates event names from the annotation
    // block. It only counts as the separator when followed by at least one
    // token and every following token has the "name=value" shape — a "|"
    // followed by plain tokens is an event name (pre-annotation files, and
    // databases whose alphabet includes "|", keep parsing as before).
    size_t separator = tokens.size();
    for (size_t i = 1; i + 1 < tokens.size(); ++i) {
      if (tokens[i] != "|") continue;
      bool all_pairs = true;
      for (size_t j = i + 1; j < tokens.size(); ++j) {
        if (tokens[j].find('=') == std::string::npos) {
          all_pairs = false;
          break;
        }
      }
      if (all_pairs) {
        separator = i;
        break;
      }
    }
    if (separator == 1) {
      return Status::Corruption("line " + std::to_string(line_number) +
                                ": pattern with no events before '|'");
    }
    events.clear();
    for (size_t i = 1; i < separator; ++i) {
      events.push_back(dictionary->Intern(tokens[i]));
    }
    SemanticsAnnotations annotations;
    for (size_t i = separator + 1; i < tokens.size(); ++i) {
      const std::vector<std::string> kv = Split(tokens[i], "=");
      SemanticsMeasure measure;
      uint64_t value = 0;
      // ParseUint64 covers the full counter range: saturated measure
      // values (UINT64_MAX) written by the annotator must re-parse.
      if (kv.size() != 2 || !SemanticsMeasureFromName(kv[0], &measure) ||
          !ParseUint64(kv[1], &value)) {
        return Status::Corruption("line " + std::to_string(line_number) +
                                  ": bad annotation '" + tokens[i] +
                                  "' (expected measure=value)");
      }
      annotations.values.push_back({measure, value});
    }
    rows.Append(events, static_cast<uint64_t>(support), annotations);
  }
  return rows;
}

Status WritePatternsFile(const PatternTable& rows,
                         const EventDictionary& dictionary,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << WritePatterns(rows, dictionary);
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Result<PatternTable> ReadPatternsFile(const std::string& path,
                                      EventDictionary* dictionary) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParsePatterns(buffer.str(), dictionary);
}

}  // namespace gsgrow
