#include "semantics/gap_support.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace gsgrow {

namespace {

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  uint64_t s = a + b;
  if (s < a) return std::numeric_limits<uint64_t>::max();
  return s;
}

uint64_t SaturatingSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

// Shared DP: counts landmark tuples l_1 < .. < l_m with gaps in range.
// `matches(j, p)` tells whether position p can play pattern index j.
template <typename MatchFn>
uint64_t CountTuples(size_t n, size_t m, const GapRequirement& gap,
                     MatchFn matches) {
  if (m == 0 || n == 0 || m > n) return 0;
  std::vector<uint64_t> dp(n, 0);
  for (size_t p = 0; p < n; ++p) dp[p] = matches(0, p) ? 1 : 0;
  for (size_t j = 1; j < m; ++j) {
    // prefix[p] = dp[0] + .. + dp[p-1] (saturating).
    std::vector<uint64_t> prefix(n + 1, 0);
    for (size_t p = 0; p < n; ++p) {
      prefix[p + 1] = SaturatingAdd(prefix[p], dp[p]);
    }
    std::vector<uint64_t> next(n, 0);
    for (size_t p = 0; p < n; ++p) {
      if (!matches(j, p)) continue;
      // Previous landmark p' with gap = p - p' - 1 in [min_gap, max_gap]:
      // p' in [p - 1 - max_gap, p - 1 - min_gap].
      if (p < 1 + gap.min_gap) continue;
      const size_t hi = p - gap.min_gap;               // exclusive: p' < hi
      const size_t lo = (gap.max_gap >= p) ? 0 : p - 1 - gap.max_gap;
      if (lo >= hi) continue;
      next[p] = SaturatingSub(prefix[hi], prefix[lo]);
    }
    dp.swap(next);
  }
  uint64_t total = 0;
  for (size_t p = 0; p < n; ++p) total = SaturatingAdd(total, dp[p]);
  return total;
}

}  // namespace

uint64_t GapOccurrenceCount(const Sequence& sequence, const Pattern& pattern,
                            const GapRequirement& gap) {
  return CountTuples(sequence.length(), pattern.size(), gap,
                     [&](size_t j, size_t p) {
                       return sequence[static_cast<Position>(p)] == pattern[j];
                     });
}

uint64_t GapSupport(const SequenceDatabase& db, const Pattern& pattern,
                    const GapRequirement& gap) {
  uint64_t total = 0;
  for (const Sequence& s : db.sequences()) {
    total = total + GapOccurrenceCount(s, pattern, gap);
  }
  return total;
}

uint64_t MaxPossibleOccurrences(size_t sequence_length, size_t pattern_length,
                                const GapRequirement& gap) {
  return CountTuples(sequence_length, pattern_length, gap,
                     [](size_t, size_t) { return true; });
}

uint64_t GapOccurrenceCountWithCursor(const InvertedIndex& index, SeqId i,
                                      std::span<const EventId> pattern,
                                      const GapRequirement& gap,
                                      GapCountScratch* scratch) {
  const size_t m = pattern.size();
  if (m == 0) return 0;
  const std::span<const Position> first = index.Positions(i, pattern[0]);
  if (first.empty()) return 0;
  // dp over the occurrence list of the current pattern event; the reference
  // DP's zero entries (positions without the event) contribute nothing to
  // any saturating partial sum, so skipping them preserves the exact values.
  std::vector<uint64_t>& dp = scratch->dp;
  std::vector<uint64_t>& next = scratch->next;
  std::vector<uint64_t>& prefix = scratch->prefix;
  dp.assign(first.size(), 1);
  std::span<const Position> prev_occ = first;
  for (size_t j = 1; j < m; ++j) {
    const std::span<const Position> occ = index.Positions(i, pattern[j]);
    if (occ.empty()) return 0;
    // prefix[k] = dp[0] + .. + dp[k-1] (saturating), over prev_occ.
    prefix.resize(prev_occ.size() + 1);
    prefix[0] = 0;
    for (size_t k = 0; k < prev_occ.size(); ++k) {
      prefix[k + 1] = SaturatingAdd(prefix[k], dp[k]);
    }
    next.assign(occ.size(), 0);
    for (size_t k = 0; k < occ.size(); ++k) {
      const size_t p = occ[k];
      // Previous landmark p' with gap p - p' - 1 in [min_gap, max_gap]:
      // p' in [p - 1 - max_gap, p - 1 - min_gap].
      if (p < 1 + gap.min_gap) continue;
      const size_t hi_pos = p - gap.min_gap;  // exclusive: p' < hi_pos
      const size_t lo_pos = (gap.max_gap >= p) ? 0 : p - 1 - gap.max_gap;
      if (lo_pos >= hi_pos) continue;
      const size_t lo_idx = static_cast<size_t>(
          std::lower_bound(prev_occ.begin(), prev_occ.end(), lo_pos) -
          prev_occ.begin());
      const size_t hi_idx = static_cast<size_t>(
          std::lower_bound(prev_occ.begin(), prev_occ.end(), hi_pos) -
          prev_occ.begin());
      next[k] = SaturatingSub(prefix[hi_idx], prefix[lo_idx]);
    }
    dp.swap(next);
    prev_occ = occ;
  }
  uint64_t total = 0;
  for (uint64_t v : dp) total = SaturatingAdd(total, v);
  return total;
}

double GapSupportRatio(const Sequence& sequence, const Pattern& pattern,
                       const GapRequirement& gap) {
  const uint64_t max_possible =
      MaxPossibleOccurrences(sequence.length(), pattern.size(), gap);
  if (max_possible == 0) return 0.0;
  return static_cast<double>(GapOccurrenceCount(sequence, pattern, gap)) /
         static_cast<double>(max_possible);
}

}  // namespace gsgrow
