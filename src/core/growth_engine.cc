#include "core/growth_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/gap_constrained.h"
#include "core/instance_growth.h"
#include "util/logging.h"

namespace gsgrow {

namespace {

// Shared root enumeration: single-event patterns are frequent iff their
// database-wide occurrence count reaches min_support, under any extension
// policy (a single event has no landmark gaps to constrain).
std::vector<EventId> FrequentEventsByTotalCount(const InvertedIndex& index,
                                                uint64_t min_support) {
  std::vector<EventId> roots;
  for (EventId e : index.present_events()) {
    if (index.TotalCount(e) >= min_support) roots.push_back(e);
  }
  return roots;
}

GrownChild RootChild(const InvertedIndex& index, EventId e) {
  GrownChild child;
  child.set = RootInstances(index, e);
  child.support = child.set.size();
  return child;
}

}  // namespace

// ---------------------------------------------------------------------------
// UnconstrainedExtension
// ---------------------------------------------------------------------------

std::vector<EventId> UnconstrainedExtension::FrequentRoots(
    uint64_t min_support) const {
  return FrequentEventsByTotalCount(*index_, min_support);
}

GrownChild UnconstrainedExtension::Root(EventId e) const {
  return RootChild(*index_, e);
}

// ---------------------------------------------------------------------------
// BoundedGapExtension
// ---------------------------------------------------------------------------

std::vector<EventId> BoundedGapExtension::FrequentRoots(
    uint64_t min_support) const {
  return FrequentEventsByTotalCount(*index_, min_support);
}

GrownChild BoundedGapExtension::Root(EventId e) const {
  return RootChild(*index_, e);
}

uint64_t BoundedGapExtension::Support(const GrowthNode& node, EventId e,
                                      const SupportSet& grown) {
  // |grown| = sup(P ◦ e) >= sup_gc(P ◦ e), since dropping the constraint
  // only adds instances. A child that is infrequent even unconstrained
  // needs no flow computation — report the (under-min_support) upper bound
  // and let the engine prune it.
  if (grown.size() < min_support_) return grown.size();
  // Exact support via the layered max-flow oracle (greedy bounded-gap
  // growth is not maximum under constraints, so only the flow value can be
  // reported for frequent patterns), run only on the sequences of `grown`.
  // The candidate pattern round-trips through the scratch vector so no copy
  // is allocated per call.
  events_scratch_.assign(node.pattern.begin(), node.pattern.end());
  events_scratch_.push_back(e);
  Pattern candidate(std::move(events_scratch_));
  const uint64_t support =
      ExactGapConstrainedSupport(*index_, grown, candidate, *gap_);
  events_scratch_ = std::move(candidate).TakeEvents();
  return support;
}

// ---------------------------------------------------------------------------
// ClosurePruning
// ---------------------------------------------------------------------------

bool ClosurePruning::PruneSubtree(const GrowthNode& node) {
  scanned_ = false;
  insert_non_closed_ = false;
  // The prune verdict never depends on the append children, so with LBCheck
  // on the scan runs before they are grown. Without it the scan only serves
  // CCheck, and ShouldEmit runs it when no equal-support append decides the
  // node first.
  if (!options_->use_landmark_border_pruning) return false;
  scanned_ = true;
  node.stats.closure_checks++;
  // Theorem 5: a prune means no closed pattern has node.pattern as a prefix.
  return CheckInsertExtensions(node, &insert_non_closed_);
}

bool ClosurePruning::ShouldEmit(const GrowthNode& node,
                                bool equal_support_append) {
  if (equal_support_append) return false;
  if (!scanned_) {
    node.stats.closure_checks++;
    CheckInsertExtensions(node, &insert_non_closed_);
  }
  return !insert_non_closed_;
}

// Scans insert/prepend extensions (CCheck cases 2-3 + LBCheck). Sets
// *non_closed when an equal-support extension exists; returns true when
// LBCheck says the subtree can be pruned (only when
// use_landmark_border_pruning).
//
// Every (gap, candidate) pair is decided by interval matching against the
// node's leftmost/rightmost landmark columns (InsertIntervalCheck, DESIGN.md
// §5); only admitted pairs regrow, and only for LBCheck. Gaps run from the
// last to the first because the rightmost columns are built right to left.
bool ClosurePruning::CheckInsertExtensions(const GrowthNode& node,
                                           bool* non_closed) {
  MiningStats& stats = node.stats;
  const std::vector<EventId>& pattern = node.pattern;

  BuildNodeTables(node);
  const std::span<const EventId> candidates = intervals_.candidates();
  for (size_t gap = pattern.size(); gap-- > 0;) {
    for (size_t j = 0; j < candidates.size(); ++j) {
      // The (gap, candidate) scan is the engine's longest uninterruptible
      // stretch — poll here so a time budget cannot be overshot by a whole
      // closure check, and so a sibling worker's stop lands mid-node. An
      // aborted scan returns an indeterminate decision; the engine discards
      // it (the run is truncated either way).
      if (node.run != nullptr && node.run->ShouldStop()) return false;
      // Inserting an event equal to the one right after the gap yields
      // the same extension pattern as inserting it one gap to the right
      // (ultimately an append, covered by the DFS children) — skip the
      // duplicate here.
      if (candidates[j] == pattern[gap]) continue;
      if (!intervals_.AdmitsCandidate(gap, j, &stats.next_queries)) continue;
      *non_closed = true;
      if (!options_->use_landmark_border_pruning) return false;
      uint64_t steps = 0;
      const bool prune =
          intervals_.LastLandmarksMatch(&stats.next_queries, &steps);
      stats.insgrow_calls += steps;
      stats.closure_regrow_events += steps;
      if (prune) return true;
    }
  }
  return false;
}

void ClosurePruning::BuildNodeTables(const GrowthNode& node) {
  const InvertedIndex& index = *index_;
  intervals_.Reset(index, node.pattern, node.prefix_sets);
  // Candidate events, shared by every (gap, candidate) scan of this node.
  // Closure is checked against extensions WITHIN the restricted alphabet
  // (when one is set), matching the projection semantics of the root
  // filter: an out-of-alphabet equal-support extension must not declare an
  // in-alphabet pattern non-closed.
  //
  // Sound filter: an equal-support extension must preserve every n_i, and
  // each of the n_i non-overlapping instances consumes a distinct
  // occurrence of the inserted event, so count_i(e) >= n_i must hold in
  // every relevant sequence (DESIGN.md §1). Enumerate the events of the
  // first relevant sequence and let the check verify the condition against
  // every run, keeping the slots it resolves. The pattern's own events pass
  // without the count loop: the n_i instances hold n_i distinct
  // occurrences of every pattern event.
  own_events_.assign(node.pattern.begin(), node.pattern.end());
  std::sort(own_events_.begin(), own_events_.end());
  auto own = own_events_.begin();
  const InvertedIndex::SeqBlock& first =
      *index.seq_block(intervals_.runs().front().first);
  for (size_t k = 0; k < first.num_events(); ++k) {
    const EventId e = first.events[k];
    if (!AlphabetAllows(*options_, e)) continue;
    while (own != own_events_.end() && *own < e) ++own;
    if (own != own_events_.end() && *own == e) {
      intervals_.AddCandidate(e);
    } else {
      intervals_.AddCandidateIfCounted(e, static_cast<uint32_t>(k));
    }
  }
}

// ---------------------------------------------------------------------------
// TopKSink
// ---------------------------------------------------------------------------

bool TopKSink::Better(const PatternRow& a, const PatternRow& b) {
  if (a.support != b.support) return a.support > b.support;
  return std::lexicographical_compare(a.events.begin(), a.events.end(),
                                      b.events.begin(), b.events.end());
}

void TopKSink::EmitAnnotated(const std::vector<EventId>& events,
                             uint64_t support,
                             const SemanticsAnnotations& annotations) {
  if (!WouldKeep(events, support)) return;
  if (heap_.size() < k_) {
    heap_.push_back(Entry{events, support, annotations});
    std::push_heap(heap_.begin(), heap_.end(), EntryBetter);
    if (heap_.size() == k_) PublishFloor();
    return;
  }
  // Replace the weakest entry, reusing its buffers.
  std::pop_heap(heap_.begin(), heap_.end(), EntryBetter);
  Entry& slot = heap_.back();
  slot.events.assign(events.begin(), events.end());
  slot.support = support;
  slot.annotations.values = annotations.values;
  std::push_heap(heap_.begin(), heap_.end(), EntryBetter);
  PublishFloor();
}

// Raises the shared floor to this sink's local floor (monotone CAS max).
// Publishing a local k-th-best support is always sound: it can only be
// weaker than (or equal to) the global k-th best, and floors only rise.
void TopKSink::PublishFloor() {
  if (shared_floor_ == nullptr) return;
  const uint64_t local = heap_.front().support;
  uint64_t current = shared_floor_->load(std::memory_order_relaxed);
  while (current < local &&
         !shared_floor_->compare_exchange_weak(current, local,
                                               std::memory_order_relaxed)) {
  }
}

PatternTable TopKSink::Take() {
  std::sort(heap_.begin(), heap_.end(), EntryBetter);
  PatternTable out;
  for (const Entry& entry : heap_) out.Append(entry.row());
  heap_.clear();
  return out;
}

}  // namespace gsgrow
