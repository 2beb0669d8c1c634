// Gap-requirement support (Zhang, Kao, Cheung & Yip, SIGMOD 2005), Table I
// row 3: ALL occurrences (overlapping included) of a pattern whose
// consecutive landmark gaps lie within [min_gap, max_gap] are counted, and
// the support ratio normalizes by N_l, the maximum possible count for a
// pattern of that length under the same gap requirement.

#ifndef GSGROW_SEMANTICS_GAP_SUPPORT_H_
#define GSGROW_SEMANTICS_GAP_SUPPORT_H_

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "core/inverted_index.h"
#include "core/pattern.h"
#include "core/sequence.h"
#include "core/sequence_database.h"

namespace gsgrow {

/// Gap requirement: number of events strictly between consecutive landmark
/// positions must fall in [min_gap, max_gap].
struct GapRequirement {
  size_t min_gap = 0;
  size_t max_gap = SIZE_MAX;
};

/// Number of landmarks of `pattern` in `sequence` satisfying `gap`
/// (dynamic programming, O(len * |pattern|) with window sums). Saturates
/// at UINT64_MAX on (pathological) overflow.
uint64_t GapOccurrenceCount(const Sequence& sequence, const Pattern& pattern,
                            const GapRequirement& gap);

/// Sum of GapOccurrenceCount over all sequences.
uint64_t GapSupport(const SequenceDatabase& db, const Pattern& pattern,
                    const GapRequirement& gap);

/// N_l: the maximum possible occurrence count of ANY length-m pattern in a
/// length-n sequence under `gap` — the number of position tuples
/// l_1 < ... < l_m with all gaps in range (every position matching).
uint64_t MaxPossibleOccurrences(size_t sequence_length, size_t pattern_length,
                                const GapRequirement& gap);

/// Support ratio per the Zhang et al. normalization:
/// GapOccurrenceCount / N_l (0 when N_l == 0).
double GapSupportRatio(const Sequence& sequence, const Pattern& pattern,
                       const GapRequirement& gap);

// --- Incremental entry point (landmark replay; DESIGN.md §7) -------------

/// Caller-owned scratch for GapOccurrenceCountWithCursor: the DP and prefix
/// arrays persist across calls, so emission-time annotation allocates
/// nothing in steady state.
struct GapCountScratch {
  std::vector<uint64_t> dp;
  std::vector<uint64_t> next;
  std::vector<uint64_t> prefix;
};

/// GapOccurrenceCount for sequence `i`, computed over the index's occurrence
/// lists of the pattern's events instead of a raw-sequence scan: the DP only
/// visits positions where a pattern event actually occurs
/// (O(sum_j |occ(e_j)| log) instead of O(len * |pattern|)). Identical
/// values — including the saturation behavior — to GapOccurrenceCount.
uint64_t GapOccurrenceCountWithCursor(const InvertedIndex& index, SeqId i,
                                      std::span<const EventId> pattern,
                                      const GapRequirement& gap,
                                      GapCountScratch* scratch);

}  // namespace gsgrow

#endif  // GSGROW_SEMANTICS_GAP_SUPPORT_H_
