// Instance growth (paper Section III-A): the INSgrow operation
// (Algorithm 2) and supComp (Algorithm 1).
//
// Given a *leftmost* support set I of pattern P, INSgrow extends it to a
// leftmost support set of P ◦ e by scanning I in right-shift order and
// matching each instance to the earliest available occurrence of e
// (next(S, e, max(last_position, l_{j-1}))). Greedy-leftmost extension is
// provably maximum (Lemma 4), so |result| == sup(P ◦ e).
//
// GrowSupportSetInto grows one event into a caller-owned buffer and answers
// each per-sequence run of next() queries through one PositionCursor (the
// event slot is resolved once per run and advanced by galloping search
// instead of a fresh binary search per instance; DESIGN.md §5).
// The allocating GrowSupportSet is a thin wrapper. GrowSupportSetReference
// preserves the pre-cursor implementation — a full NextAtOrAfter binary
// search per query into a freshly allocated set — as the differential-test
// oracle.
//
// The DFS grows its append children through AppendOccurrenceBound, which
// bounds every candidate in one pass over the node's sequences and grows
// only the candidates that can still matter, from the slots that pass
// found. InsertIntervalCheck decides CloGSgrow's insert/prepend extensions
// from landmark columns without growing them.

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

/// Append growth under an occurrence bound (DESIGN.md §5): the DFS's one
/// append step. For a support set with n_i instances in sequence i,
///
///   |GrowSupportSetInto(support_set, e)| <= Σ_i min(n_i, count_i(e)),
///
/// because each grown instance extends a distinct input instance and, with
/// strictly rising last landmarks, takes a distinct occurrence of e.
///
/// Filter intersects the candidate list once with each (sequence, n_i) run's
/// sorted event block, adds min(n_i, count_i(e)) to every hit's bound, and
/// remembers the hit's slot. ProbesRun picks the intersection per run: probe
/// each candidate with the block's branch-free slot search
/// (SeqBlock::SeekSlot) when |C| * bit_width(B) < B for B block events,
/// otherwise walk the block against a dense per-event candidate table. Both
/// are branch-free: a miss adds its min(n_i, count) to a sink slot of the
/// bound array instead of skipping, and every step writes a hit slot whose
/// write cursor advances only on a real hit. Grow then grows the kept
/// candidates run by run straight from those slots, so no (candidate,
/// sequence) pair is searched twice and sequences lacking a candidate cost
/// it nothing. Buffers persist across calls.
class AppendOccurrenceBound {
 public:
  /// Bounds every candidate over `support_set` and returns the candidates,
  /// in their order, whose bound reaches `threshold`. The result, bounds()
  /// and the remembered slots stay valid until the next call; `index` and
  /// `support_set` must stay valid until the Grow call that follows.
  std::span<const EventId> Filter(const InvertedIndex& index,
                                  const SupportSet& support_set,
                                  std::span<const EventId> candidates,
                                  uint64_t threshold);

  /// bounds()[j] is the bound of candidates[j] of the last Filter call.
  std::span<const uint64_t> bounds() const {
    return std::span(bound_).subspan(1);
  }

  /// Filter's rule for one run: true iff it probes each of `candidates`
  /// in a block of `block_events` events rather than walking the block —
  /// when the probes' comparisons, candidates * bit_width(block_events),
  /// are fewer than the walk's steps.
  static bool ProbesRun(size_t candidates, size_t block_events);

  /// INSgrow for every candidate the last Filter call kept: clears
  /// children[j] (keeping its capacity) and fills it with the leftmost
  /// support set of P ◦ kept[j]. `children` must hold one buffer per kept
  /// candidate. Adds one to `*next_queries` per next() query issued.
  void Grow(std::span<SupportSet> children, uint64_t* next_queries);

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  // A candidate present in a run's sequence: its index in the candidate
  // list and its slot in the sequence's block.
  struct Hit {
    uint32_t candidate;
    uint32_t slot;
  };

  const InvertedIndex* index_ = nullptr;
  const SupportSet* support_set_ = nullptr;
  // (sequence, n_i) runs of the last support set; run r's hits are
  // hits_[run_hits_[r] .. run_hits_[r + 1]).
  std::vector<std::pair<SeqId, uint32_t>> runs_;
  std::vector<uint32_t> run_hits_;
  // Scratch as long as the most hits one pass found plus one block: every
  // step of a run writes a slot, including the one past its last hit.
  std::vector<Hit> hits_;
  // candidate_of_[e]: one plus the index of e in the candidate list during a
  // pass, 0 (the sink) everywhere else.
  std::vector<uint32_t> candidate_of_;
  // bound_[j + 1] is the bound of candidate j; bound_[0] sinks the misses.
  std::vector<uint64_t> bound_ = {0};
  // kept_index_[j]: index of candidates[j] in kept_, or kNone.
  std::vector<uint32_t> kept_index_;
  std::vector<EventId> kept_;
};

/// Insert/prepend closure check by interval matching (DESIGN.md §5): decides
/// whether P' = e_1..e_g ◦ e ◦ e_{g+1}..e_m keeps sup(P) — and, if it does,
/// whether LBCheck (Theorem 5) prunes — without growing P' from its prefix.
///
/// For each sequence i with n_i instances of P, let L[k][j] be landmark j of
/// the k-th leftmost instance and R[k][j] that of the k-th rightmost one
/// (k < n_i, both families in right-shift order). Then sup_i(P') = n_i iff
/// some e_0 < .. < e_{n_i - 1} among e's positions satisfy
/// L[k][g-1] < e_k < R[k][g] (no left bound at g = 0), and one greedy pass
/// over e's positions finds them when they exist.
///
/// L is read straight out of the prefix sets: a sequence run of INSgrow
/// stops at its first failure, so the k-th instance of P extends the k-th
/// instance of every prefix set (DESIGN.md §2). R is built right to left
/// with PositionCursor::PrevBefore. Both are built lazily per (sequence,
/// column): a pair dying in its first sequence pays only for that
/// sequence's columns.
///
/// The events asked about are the node's insert candidates, added after
/// Reset. Each (candidate, sequence) position list is resolved at most once
/// per node: AddCandidateIfCounted keeps the slots its count filter
/// resolves, and AddCandidate's lists are resolved on first use. Buffers
/// persist across nodes.
class InsertIntervalCheck {
 public:
  /// Starts a node with no candidates. `prefix_sets[j]` must be the
  /// leftmost support set of e_1..e_{j+1}, for j < |pattern|; the index and
  /// both spans must stay valid while the node is checked.
  void Reset(const InvertedIndex& index, std::span<const EventId> pattern,
             std::span<const SupportSet> prefix_sets);

  /// (sequence, n_i) runs of the node's support set, ascending by sequence.
  std::span<const std::pair<SeqId, uint32_t>> runs() const { return runs_; }

  /// Adds `e` as a candidate with no filter. Its position list in each
  /// sequence is resolved on first use, in run order. Any event may be
  /// added, once per node.
  void AddCandidate(EventId e);

  /// Adds `e` as a candidate iff count_i(e) >= n_i in every run (the count
  /// filter, DESIGN.md §1), keeping the slot it resolves in each run.
  /// `first_slot` must be e's slot in the block of the first run's
  /// sequence. Returns whether `e` was added.
  bool AddCandidateIfCounted(EventId e, uint32_t first_slot);

  /// The node's candidates, in the order they were added.
  std::span<const EventId> candidates() const { return candidates_; }

  /// True iff inserting candidates()[candidate] at `gap` (0 = prepend,
  /// gap < |pattern|) keeps every n_i, i.e. sup(P') == sup(P). Each position
  /// probe adds one to `*next_queries`, and so does each probe of a
  /// rightmost column built on the way.
  bool AdmitsCandidate(size_t gap, size_t candidate, uint64_t* next_queries);

  /// LBCheck for the pair the last AdmitsCandidate call admitted: true iff
  /// the leftmost support set of P' ends at the same last landmarks as P's
  /// (Theorem 5 (ii); they are never to the left). Regrows only the n_i
  /// leftmost rows from the greedy e column, one pattern column at a time,
  /// and stops a sequence as soon as a regrown column equals L's: from
  /// there the greedy inputs are identical. Adds one to `*regrow_steps` per
  /// (sequence, column) regrown.
  bool LastLandmarksMatch(uint64_t* next_queries, uint64_t* regrow_steps);

 private:
  // Slot of a lazily resolved event absent from a run's sequence.
  static constexpr uint32_t kAbsent = UINT32_MAX;

  // Builds R column `column` and resolves L column `column - 1` for run
  // `r`, together with every column above them not yet built. Runs reach
  // every column in ascending order.
  void EnsureColumns(size_t r, size_t column, uint64_t* next_queries);

  // Room for one more candidate's row of slots.
  uint32_t* NextSlotRow();

  // Run r's rows of L column `column`: their `last` fields (resolved by
  // EnsureColumns).
  const Instance* LeftRows(size_t column, size_t r) const {
    return prefix_sets_[column].data() + left_row_[column * runs_.size() + r];
  }
  // Run r's rows of R column `column`.
  Position* RightRows(size_t column, size_t r) {
    return right_.data() + column * support_ + row_begin_[r];
  }

  const InvertedIndex* index_ = nullptr;
  std::span<const EventId> pattern_;
  std::span<const SupportSet> prefix_sets_;
  size_t support_ = 0;
  std::vector<std::pair<SeqId, uint32_t>> runs_;
  // Block of run r's sequence.
  std::vector<const InvertedIndex::SeqBlock*> blocks_;
  // First row of run r in the node's support set.
  std::vector<uint32_t> row_begin_;
  // Lowest column built for run r (|pattern| = none yet).
  std::vector<uint32_t> built_from_;
  // left_row_[column * |runs| + r]: first row of run r's sequence in
  // prefix_sets[column].
  std::vector<uint32_t> left_row_;
  // right_[column * support + row]: R, column-major.
  std::vector<Position> right_;
  std::vector<EventId> candidates_;
  // slots_[j * |runs| + r]: slot of candidate j in run r's block (kAbsent
  // if it does not occur there), valid for r < resolved_[j].
  std::vector<uint32_t> slots_;
  std::vector<uint32_t> resolved_;
  // The greedy e column of the last admitted pair (regrown in place by
  // LastLandmarksMatch), and its gap.
  std::vector<Position> inserted_;
  size_t gap_ = 0;
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
