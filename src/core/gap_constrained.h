// Gap-constrained repetitive gapped subsequence mining — the paper's §V
// future-work direction ("extend our algorithms for mining approximate
// repetitive patterns with gap constraints, which is useful for mining
// subsequences from long sequences of DNA, protein, and text data").
//
// A LandmarkGapConstraint bounds the number of events strictly between
// consecutive landmark positions. Two support computations are provided:
//
//  * EXACT — the layered max-flow of core/reference.h with gap-filtered
//    edges, its layers read from the index's position lists. The flow
//    argument does not depend on the greedy construction, so it stays
//    exact under constraints (polynomial, but heavier).
//
//  * GREEDY — instance growth with a bounded next() window. Under gap
//    constraints the paper's leftmost-is-maximum theorem (Lemma 4) no
//    longer applies: committing an instance to its earliest extension can
//    push a later instance out of its window, so the greedy count is a
//    LOWER BOUND on the exact support (tests verify the bound and exercise
//    both directions). It is exact when the constraint is absent.
//
// MineAllFrequentGapConstrained uses exact supports with prefix-Apriori
// pruning: deleting a SUFFIX event of a pattern never violates the gap
// constraint of the remaining prefix, so sup_gc(prefix) >= sup_gc(pattern)
// and append-growth search remains complete. (Full Apriori fails under gap
// constraints: deleting a MIDDLE event can merge two small gaps into one
// oversized gap — which is why the BoundedGapExtension policy opts out of
// candidate-list inheritance.) The miner is a configuration of the unified
// GrowthEngine (growth_engine.h) over that extension policy.

#ifndef GSGROW_CORE_GAP_CONSTRAINED_H_
#define GSGROW_CORE_GAP_CONSTRAINED_H_

#include "core/instance.h"
#include "core/inverted_index.h"
#include "core/miner_options.h"
#include "core/mining_result.h"
#include "core/pattern.h"
#include "core/reference.h"
#include "core/sequence_database.h"

namespace gsgrow {

/// Greedy constrained instance growth. Unlike the unconstrained INSgrow,
/// an instance that cannot extend within its window does NOT stop the scan
/// of its sequence (later instances have windows further right and may
/// still extend).
SupportSet GrowSupportSetWithGaps(const InvertedIndex& index,
                                  const SupportSet& support_set, EventId e,
                                  const LandmarkGapConstraint& gap);

/// Greedy lower bound on the gap-constrained repetitive support; equals
/// the exact value when `gap` is unconstrained.
uint64_t GreedyGapConstrainedSupport(const InvertedIndex& index,
                                     const Pattern& pattern,
                                     const LandmarkGapConstraint& gap);

/// Exact gap-constrained repetitive support (max-flow oracle).
uint64_t ExactGapConstrainedSupport(const SequenceDatabase& db,
                                    const Pattern& pattern,
                                    const LandmarkGapConstraint& gap);

/// The same, with the oracle run only on the sequences of `support_set`,
/// the unconstrained leftmost support set of `pattern` (a sequence with no
/// unconstrained instance has no constrained one either), and each flow
/// layer read from `index` as the position list of one pattern event.
uint64_t ExactGapConstrainedSupport(const InvertedIndex& index,
                                    const SupportSet& support_set,
                                    const Pattern& pattern,
                                    const LandmarkGapConstraint& gap);

/// Mines all patterns whose EXACT gap-constrained repetitive support is at
/// least options.min_support. Intended for moderate corpora (the per-node
/// flow computation is polynomial but much heavier than INSgrow); budgets
/// in `options` apply.
MiningResult MineAllFrequentGapConstrained(const SequenceDatabase& db,
                                           const MinerOptions& options,
                                           const LandmarkGapConstraint& gap);

/// Same with a prebuilt index (the serving path reuses one long-lived
/// snapshot across queries). The growth state and the flow oracle's layers
/// both come from the index, so no raw sequence is read.
MiningResult MineAllFrequentGapConstrained(const InvertedIndex& index,
                                           const MinerOptions& options,
                                           const LandmarkGapConstraint& gap);

}  // namespace gsgrow

#endif  // GSGROW_CORE_GAP_CONSTRAINED_H_
