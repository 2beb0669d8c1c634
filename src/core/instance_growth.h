// Instance growth (paper Section III-A): the INSgrow operation
// (Algorithm 2) and supComp (Algorithm 1).
//
// Given a *leftmost* support set I of pattern P, INSgrow extends it to a
// leftmost support set of P ◦ e by scanning I in right-shift order and
// matching each instance to the earliest available occurrence of e
// (next(S, e, max(last_position, l_{j-1}))). Greedy-leftmost extension is
// provably maximum (Lemma 4), so |result| == sup(P ◦ e).
//
// The hot-path entry point is GrowSupportSetInto: it writes into a
// caller-owned buffer (the DFS and the closure check double-buffer a small
// arena, so steady-state growth performs zero allocations) and answers each
// per-sequence run of next() queries through one PositionCursor (the event
// slot is resolved once per run and advanced by galloping search instead of
// a fresh binary search per instance; DESIGN.md §5). The allocating
// GrowSupportSet is a thin wrapper. GrowSupportSetReference preserves the
// pre-cursor implementation — a full NextAtOrAfter binary search per query
// into a freshly allocated set — as the differential-test oracle.

#ifndef GSGROW_CORE_INSTANCE_GROWTH_H_
#define GSGROW_CORE_INSTANCE_GROWTH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/inverted_index.h"
#include "core/pattern.h"
#include "core/types.h"

namespace gsgrow {

/// Leftmost support set of the size-1 pattern <e>: every occurrence of e,
/// in right-shift order (GSgrow Algorithm 3, line 3).
SupportSet RootInstances(const InvertedIndex& index, EventId e);

/// INSgrow (Algorithm 2): extends leftmost support set `support_set` of some
/// pattern P to the leftmost support set of P ◦ e. `support_set` must be
/// sorted in right-shift order (it is, if produced by this module).
SupportSet GrowSupportSet(const InvertedIndex& index,
                          const SupportSet& support_set, EventId e);

/// INSgrow into caller-owned storage: clears `out` (keeping its capacity)
/// and fills it with the leftmost support set of P ◦ e. `out` must not
/// alias `support_set`. When `next_queries` is non-null it is incremented
/// once per next() query issued against the index.
void GrowSupportSetInto(const InvertedIndex& index,
                        const SupportSet& support_set, EventId e,
                        SupportSet& out, uint64_t* next_queries = nullptr);

/// Occurrence bound on append extensions (DESIGN.md §5). For a support set
/// with n_i instances in sequence i,
///
///   |GrowSupportSetInto(support_set, e)| <= Σ_i min(n_i, count_i(e)),
///
/// because each grown instance extends a distinct input instance and, with
/// strictly rising last landmarks, takes a distinct occurrence of e. One
/// sequence-driven pass over the support set's runs computes the bound for
/// every event at once, so the DFS can drop hopeless append candidates
/// before growing any of them. Buffers persist across calls: a dense
/// per-event accumulator, reset through the list of events it touched.
class AppendOccurrenceBound {
 public:
  /// The candidates, in their order, whose bound reaches `threshold` — or
  /// all of `candidates` when the pass would scan more than it can save:
  /// it reads every distinct event of the support set's sequences, while
  /// growing costs one slot lookup per (candidate, sequence) pair, so it is
  /// skipped when |candidates| is below the mean distinct-event count of
  /// those sequences. The result stays valid until the next call.
  std::span<const EventId> Filter(const InvertedIndex& index,
                                  const SupportSet& support_set,
                                  std::span<const EventId> candidates,
                                  uint64_t threshold);

  /// The bound of `e` from the last Filter call that ran the pass (0 for
  /// events absent from the support set's sequences).
  uint64_t operator[](EventId e) const {
    return e < bound_.size() ? bound_[e] : 0;
  }

 private:
  // (sequence, n_i) runs of the last support set.
  std::vector<std::pair<SeqId, uint32_t>> runs_;
  // bound_[e] for e in touched_; zero everywhere else.
  std::vector<uint64_t> bound_;
  std::vector<EventId> touched_;
  std::vector<EventId> kept_;
};

/// The pre-cursor INSgrow: one full binary search (event slot + position)
/// per next() query, result freshly allocated. Semantically identical to
/// GrowSupportSet; kept as the differential-test oracle
/// (instance_growth_test).
SupportSet GrowSupportSetReference(const InvertedIndex& index,
                                   const SupportSet& support_set, EventId e);

/// supComp (Algorithm 1): leftmost support set of `pattern` from scratch.
/// |result| == sup(pattern). Empty pattern yields an empty set.
SupportSet ComputeSupportSet(const InvertedIndex& index,
                             const Pattern& pattern);

/// sup(pattern) (Definition 2.5) in O(|pattern| * sup * log L).
uint64_t ComputeSupport(const InvertedIndex& index, const Pattern& pattern);

/// An instance with its full landmark <l_1 .. l_m> (0-based positions).
/// The miners store only (seq, first, last) triples (paper §III-D); this
/// expanded form is reconstructed on demand for reporting and tests.
struct FullInstance {
  SeqId seq = 0;
  std::vector<Position> landmark;

  friend bool operator==(const FullInstance& a,
                         const FullInstance& b) = default;
};

/// Leftmost support set of `pattern` with full landmarks, in right-shift
/// order. Runs the same greedy growth as ComputeSupportSet.
std::vector<FullInstance> ComputeFullSupportSet(const InvertedIndex& index,
                                                const Pattern& pattern);

/// Per-sequence instance counts of the leftmost support set: result[i] is
/// sup_i(pattern), the repetitive support restricted to sequence i.
/// (Repetitive support decomposes across sequences; see Lemma 4's proof.)
std::vector<uint32_t> PerSequenceSupport(const InvertedIndex& index,
                                         const Pattern& pattern);

}  // namespace gsgrow

#endif  // GSGROW_CORE_INSTANCE_GROWTH_H_
