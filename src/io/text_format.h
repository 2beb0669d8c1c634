// Plain-text sequence format: one sequence per line, whitespace-separated
// event names. Lines starting with '#' are comments; blank lines are
// skipped. This is the repository's native interchange format.

#ifndef GSGROW_IO_TEXT_FORMAT_H_
#define GSGROW_IO_TEXT_FORMAT_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "core/sequence_database.h"
#include "util/status.h"

namespace gsgrow {

/// Parses a database from text content. Lines end at '\n'; each line is
/// trimmed of surrounding whitespace (so "\r\n" endings parse), and its
/// events are the runs of characters other than ' ' and '\t', interned in
/// first-seen order. A line of 2^32 - 1 or more events (beyond the 32-bit
/// position space) fails with OutOfRange naming the line; an event name
/// longer than kMaxEventNameBytes fails with InvalidArgument naming the
/// line and the name's length.
Result<SequenceDatabase> ParseTextDatabase(const std::string& content);

/// The same with an explicit length limit: a line of `max_length` or more
/// events fails with OutOfRange naming the line. A small limit lets tests
/// reach the error without a line of 2^32 events.
Result<SequenceDatabase> ParseTextDatabase(std::string_view content,
                                           size_t max_length);

/// Serializes a database (event names resolved via its dictionary).
std::string WriteTextDatabase(const SequenceDatabase& db);

/// File wrappers. Reading fails with IOError naming the path when the
/// file cannot be opened or read (a directory included).
Result<SequenceDatabase> ReadTextDatabaseFile(const std::string& path);
Status WriteTextDatabaseFile(const SequenceDatabase& db,
                             const std::string& path);

}  // namespace gsgrow

#endif  // GSGROW_IO_TEXT_FORMAT_H_
