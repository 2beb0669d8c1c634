#include "core/gap_constrained.h"

#include <algorithm>
#include <span>
#include <vector>

#include "core/growth_engine.h"
#include "core/instance_growth.h"
#include "core/parallel_engine.h"
#include "core/semantics_sink.h"
#include "util/logging.h"

namespace gsgrow {

SupportSet GrowSupportSetWithGaps(const InvertedIndex& index,
                                  const SupportSet& support_set, EventId e,
                                  const LandmarkGapConstraint& gap) {
  GSGROW_DCHECK(IsRightShiftSorted(support_set));
  SupportSet out;
  out.reserve(support_set.size());
  const size_t n = support_set.size();
  size_t k = 0;
  while (k < n) {
    const SeqId seq = support_set[k].seq;
    Position floor = 0;
    for (; k < n && support_set[k].seq == seq; ++k) {
      const Instance& inst = support_set[k];
      // Window for the next landmark: gap events strictly between.
      const uint64_t window_lo64 =
          static_cast<uint64_t>(inst.last) + 1 + gap.min_gap;
      if (window_lo64 > kNoPosition - 1) continue;
      const Position window_lo = static_cast<Position>(window_lo64);
      const Position from = std::max(floor, window_lo);
      const Position lj = index.NextAtOrAfter(seq, e, from);
      if (lj == kNoPosition) continue;
      // Window upper bound (inclusive): inst.last + 1 + max_gap.
      const uint64_t window_hi =
          static_cast<uint64_t>(inst.last) + 1 + gap.max_gap;
      if (static_cast<uint64_t>(lj) > window_hi) {
        // Out of window for THIS instance only; later instances have
        // windows further right, so keep scanning (no break).
        continue;
      }
      floor = lj + 1;
      out.push_back(Instance{seq, inst.first, lj});
    }
  }
  return out;
}

uint64_t GreedyGapConstrainedSupport(const InvertedIndex& index,
                                     const Pattern& pattern,
                                     const LandmarkGapConstraint& gap) {
  if (pattern.empty()) return 0;
  SupportSet set = RootInstances(index, pattern[0]);
  for (size_t j = 1; j < pattern.size() && !set.empty(); ++j) {
    set = GrowSupportSetWithGaps(index, set, pattern[j], gap);
  }
  return set.size();
}

uint64_t ExactGapConstrainedSupport(const SequenceDatabase& db,
                                    const Pattern& pattern,
                                    const LandmarkGapConstraint& gap) {
  return ReferenceSupport(db, pattern, gap);
}

uint64_t ExactGapConstrainedSupport(const InvertedIndex& index,
                                    const SupportSet& support_set,
                                    const Pattern& pattern,
                                    const LandmarkGapConstraint& gap) {
  // The set is ascending by sequence: one oracle run per distinct sequence,
  // its layers the index's position lists of the pattern's events.
  std::vector<std::span<const Position>> layers(pattern.size());
  uint64_t total = 0;
  for (size_t k = 0; k < support_set.size(); ++k) {
    const SeqId seq = support_set[k].seq;
    if (k > 0 && support_set[k - 1].seq == seq) continue;
    for (size_t j = 0; j < pattern.size(); ++j) {
      layers[j] = index.Positions(seq, pattern[j]);
    }
    total += LayeredFlowSupport(layers, gap);
  }
  return total;
}

MiningResult MineAllFrequentGapConstrained(const SequenceDatabase& db,
                                           const MinerOptions& options,
                                           const LandmarkGapConstraint& gap) {
  return MineAllFrequentGapConstrained(InvertedIndex(db), options, gap);
}

MiningResult MineAllFrequentGapConstrained(const InvertedIndex& index,
                                           const MinerOptions& options,
                                           const LandmarkGapConstraint& gap) {
  GSGROW_CHECK_MSG(options.min_support >= 1, "min_support must be >= 1");
  // Each worker gets a private BoundedGapExtension (it carries a pattern
  // scratch buffer); index and gap are shared read-only. Annotation:
  // the engine's per-node state is the UNCONSTRAINED leftmost support set,
  // whose distinct sequence ids are exactly the sequences containing the
  // pattern — precisely what TableIAnnotator needs, so the Table-I values
  // of a gap-constrained run equal those of an unconstrained run on the
  // same pattern (the measures themselves are constraint-free).
  return MineWithSelectedSink(index, options, [&](auto make_sink) {
    return MineSharded(
        options,
        [&](SharedRunState& state) {
          return GrowthEngine(
              BoundedGapExtension(index, gap, options.min_support),
              NoPruning(), make_sink(), options, &state);
        },
        CommitChunks);
  });
}

}  // namespace gsgrow
