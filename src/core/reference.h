// Slow-but-independently-correct reference implementations used by the test
// suite to validate the greedy instance-growth machinery.
//
// The repetitive support of a pattern decomposes per sequence (instances in
// different sequences never overlap). Within one sequence, the maximum
// number of pairwise non-overlapping instances equals the maximum number of
// "vertex-disjoint layered paths": layer j holds the occurrences of pattern
// event e_j; a path picks one occurrence per layer with strictly increasing
// positions; non-overlap means no two paths share a vertex *within the same
// layer*. That is a unit-capacity max-flow problem, which we solve exactly
// with BFS augmentation — an algorithm entirely independent of the paper's
// greedy leftmost construction (Lemma 4), making it a sound differential
// oracle.

#ifndef GSGROW_CORE_REFERENCE_H_
#define GSGROW_CORE_REFERENCE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/mining_result.h"
#include "core/pattern.h"
#include "core/sequence.h"
#include "core/sequence_database.h"
#include "core/types.h"

namespace gsgrow {

/// All landmarks of `pattern` in `sequence` (Definition 2.1), enumerated
/// exhaustively in lexicographic order. Stops after `limit` landmarks to
/// bound the blow-up on adversarial inputs.
std::vector<std::vector<Position>> EnumerateLandmarks(
    const Sequence& sequence, const Pattern& pattern,
    size_t limit = 1 << 20);

/// Gap requirement on consecutive landmark positions: the number of events
/// strictly between l_j and l_{j+1} must lie in [min_gap, max_gap]. The
/// default is unconstrained (the paper's plain gapped subsequences).
struct LandmarkGapConstraint {
  uint32_t min_gap = 0;
  uint32_t max_gap = std::numeric_limits<uint32_t>::max();

  bool Allows(Position from, Position to) const {
    if (to <= from) return false;
    const uint64_t gap = static_cast<uint64_t>(to) - from - 1;
    return gap >= min_gap && gap <= max_gap;
  }
  bool IsUnconstrained() const {
    return min_gap == 0 &&
           max_gap == std::numeric_limits<uint32_t>::max();
  }
};

/// The layered max-flow itself: layer j holds the ascending positions of
/// pattern event j in one sequence, and the value is the maximum number of
/// non-overlapping instances whose landmark steps `gap` allows. This stays
/// exact under a gap constraint (the flow argument does not rely on greedy
/// growth), which makes it the oracle of the gap-constrained miner (paper
/// §V future work); that miner reads each layer straight from the index.
uint64_t LayeredFlowSupport(std::span<const std::span<const Position>> layers,
                            const LandmarkGapConstraint& gap = {});

/// Exact sup(pattern) restricted to one sequence: scans `sequence` for the
/// layers of LayeredFlowSupport, so it shares no code with the index.
uint64_t ReferenceSequenceSupport(const Sequence& sequence,
                                  const Pattern& pattern,
                                  const LandmarkGapConstraint& gap = {});

/// Exact sup(pattern) over the database: sum of per-sequence supports.
uint64_t ReferenceSupport(const SequenceDatabase& db, const Pattern& pattern,
                          const LandmarkGapConstraint& gap = {});

/// All frequent patterns by breadth-first growth with ReferenceSupport.
/// Only suitable for small databases (tests). Results are sorted by
/// (length, events).
PatternTable ReferenceMineAll(const SequenceDatabase& db,
                              uint64_t min_support, size_t max_length = 16);

/// Filters `all` (a complete frequent-pattern set) down to closed patterns
/// by pairwise sub-pattern/support comparison (Definition 2.6).
PatternTable FilterClosed(const PatternTable& all);

}  // namespace gsgrow

#endif  // GSGROW_CORE_REFERENCE_H_
