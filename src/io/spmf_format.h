// SPMF sequence format (http://www.philippe-fournier-viger.com/spmf/):
// integer items, "-1" terminates an itemset, "-2" terminates a sequence.
// Because this library mines event sequences (not itemset sequences), each
// itemset must contain exactly one item on input, and each event becomes a
// singleton itemset on output.

#ifndef GSGROW_IO_SPMF_FORMAT_H_
#define GSGROW_IO_SPMF_FORMAT_H_

#include <string>

#include "core/sequence_database.h"
#include "util/status.h"

namespace gsgrow {

/// Parses SPMF content. Item ids become event ids directly (dictionary
/// names are synthesized). Returns Corruption for malformed input and
/// InvalidArgument for multi-item itemsets.
Result<SequenceDatabase> ParseSpmfDatabase(const std::string& content);

/// Serializes to SPMF ("id -1 id -1 ... -2" per line).
std::string WriteSpmfDatabase(const SequenceDatabase& db);

/// File wrappers. Reading fails with IOError naming the path when the
/// file cannot be opened or read (a directory included).
Result<SequenceDatabase> ReadSpmfDatabaseFile(const std::string& path);
Status WriteSpmfDatabaseFile(const SequenceDatabase& db,
                             const std::string& path);

}  // namespace gsgrow

#endif  // GSGROW_IO_SPMF_FORMAT_H_
