// Shared machinery for the classic sequential-pattern-mining baselines
// (PrefixSpan, BIDE, CloSpan) that the paper compares against in §IV-A.
//
// In these baselines the support of a pattern is the NUMBER OF SEQUENCES
// containing it at least once (Agrawal & Srikant semantics) — unlike the
// paper's repetitive support, repetitions within a sequence do not count.
// Items are single events (our databases are event sequences, not itemset
// sequences), so only S-extensions exist.

#ifndef GSGROW_BASELINES_SEQUENTIAL_COMMON_H_
#define GSGROW_BASELINES_SEQUENTIAL_COMMON_H_

#include <cstdint>
#include <vector>

#include "core/mining_result.h"
#include "core/pattern.h"
#include "core/sequence_database.h"
#include "core/types.h"

namespace gsgrow {

/// Options for the sequential baselines.
struct SequentialMinerOptions {
  /// Minimum number of sequences that must contain the pattern.
  uint64_t min_support = 2;
  size_t max_pattern_length = std::numeric_limits<size_t>::max();
  uint64_t max_patterns = std::numeric_limits<uint64_t>::max();
  double time_budget_seconds = std::numeric_limits<double>::infinity();
};

/// Pseudo-projected database: for each sequence that contains the current
/// prefix, the position right after the prefix's first (earliest) match.
struct ProjectedEntry {
  SeqId seq;
  Position suffix_start;  // first unread position
};
using ProjectedDatabase = std::vector<ProjectedEntry>;

/// True iff `pattern` occurs in `sequence` (subsequence containment).
bool SequenceContains(const Sequence& sequence, const Pattern& pattern);

/// Sequence-count support of `pattern` over the database (baseline
/// semantics, NOT repetitive support).
uint64_t SequenceCountSupport(const SequenceDatabase& db,
                              const Pattern& pattern);

/// Earliest (first) landmark of `pattern` in `sequence`, or empty if the
/// pattern does not occur. Greedy left-to-right matching.
std::vector<Position> FirstInstance(const Sequence& sequence,
                                    const Pattern& pattern);

/// Latest (last) landmark of `pattern` in `sequence`, or empty if the
/// pattern does not occur. Greedy right-to-left matching.
std::vector<Position> LastInstance(const Sequence& sequence,
                                   const Pattern& pattern);

/// Removes non-closed records (same support, proper super-pattern exists in
/// `records`) grouping by support to limit comparisons. Input must be the
/// complete frequent set for its threshold.
PatternTable FilterClosedSequential(const PatternTable& records);

}  // namespace gsgrow

#endif  // GSGROW_BASELINES_SEQUENTIAL_COMMON_H_
