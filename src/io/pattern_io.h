// Serialization of mined pattern sets: "support <TAB> event names..." per
// line, comments with '#'. Lets downstream tooling (ranking, diffing runs,
// feature pipelines) consume miner output without linking the library.
//
// Rows mined with a semantics selection (core/semantics_sink.h) carry an
// annotation block, serialized as a trailing "|"-separated segment of
// name=value pairs in canonical measure order:
//
//   4\tA B\t|\tfixed_window=4 iterative=3
//
// A "|" token is the separator only when every token after it has the
// name=value shape; otherwise it is an ordinary event name. Lines without
// a separator parse to rows with an empty block, so pre-annotation
// files — including ones whose alphabet contains "|" — remain readable,
// and the round trip is exact in both directions (values cover the full
// uint64 range, so saturated counters survive). The one reserved shape is
// an event name containing '=' directly after a "|" event: it would be
// taken for an annotation pair.

#ifndef GSGROW_IO_PATTERN_IO_H_
#define GSGROW_IO_PATTERN_IO_H_

#include <string>

#include "core/event_dictionary.h"
#include "core/pattern_table.h"
#include "util/status.h"

namespace gsgrow {

/// Appends one row as a pattern line (no trailing newline):
/// "support<TAB>event names[<TAB>|<TAB>annotations]". This is the one
/// definition of the line shape — WritePatterns and the serve protocol
/// (io/request_io.h) both emit it, so files and server responses stay
/// mutually parseable.
void AppendPatternLine(const PatternRow& row,
                       const EventDictionary& dictionary, std::string* out);

/// Serializes rows using `dictionary` for event names.
std::string WritePatterns(const PatternTable& rows,
                          const EventDictionary& dictionary);

/// Parses rows; event names are interned into `dictionary` (so patterns
/// can be evaluated against any database built with the same dictionary).
Result<PatternTable> ParsePatterns(const std::string& content,
                                   EventDictionary* dictionary);

/// File wrappers.
Status WritePatternsFile(const PatternTable& rows,
                         const EventDictionary& dictionary,
                         const std::string& path);
Result<PatternTable> ReadPatternsFile(const std::string& path,
                                      EventDictionary* dictionary);

}  // namespace gsgrow

#endif  // GSGROW_IO_PATTERN_IO_H_
