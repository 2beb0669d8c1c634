#include "core/instance_growth.h"

#include <algorithm>

#include "util/logging.h"

namespace gsgrow {

SupportSet RootInstances(const InvertedIndex& index, EventId e) {
  SupportSet out;
  for (const InvertedIndex::Posting& posting : index.Postings(e)) {
    for (Position p : index.Positions(posting.seq, e)) {
      out.push_back(Instance{posting.seq, p, p});
    }
  }
  // Postings are ascending by sequence and positions ascending within one,
  // so `out` is already in right-shift order.
  return out;
}

SupportSet GrowSupportSet(const InvertedIndex& index,
                          const SupportSet& support_set, EventId e) {
  SupportSet out;
  GrowSupportSetInto(index, support_set, e, out);
  return out;
}

void GrowSupportSetInto(const InvertedIndex& index,
                        const SupportSet& support_set, EventId e,
                        SupportSet& out, uint64_t* next_queries) {
  GSGROW_DCHECK(IsRightShiftSorted(support_set));
  GSGROW_DCHECK(&out != &support_set);
  out.clear();
  // No reserve: `out` usually ends far smaller than its input, and a pooled
  // buffer sized to its parent keeps that capacity for the rest of the run.
  const size_t n = support_set.size();
  uint64_t queries = 0;
  size_t k = 0;
  while (k < n) {
    const SeqId seq = support_set[k].seq;
    // One slot resolution for the whole run of this sequence's instances;
    // within the run the query bounds are non-decreasing (rising floor,
    // rising last landmarks), which is exactly the cursor's contract.
    PositionCursor cursor = index.Cursor(seq, e);
    if (cursor.empty()) {
      while (k < n && support_set[k].seq == seq) ++k;
      continue;
    }
    // last_position of Algorithm 2 folded into a ">= floor" bound.
    Position floor = 0;
    for (; k < n && support_set[k].seq == seq; ++k) {
      const Instance& inst = support_set[k];
      const Position from = std::max(floor, inst.last + 1);
      const Position lj = cursor.NextAtOrAfter(from);
      ++queries;
      if (lj == kNoPosition) {
        // Algorithm 2 line 5: no occurrence left for this instance; later
        // instances of this sequence have even larger lower bounds, so stop
        // scanning the sequence (skip to its end).
        while (k < n && support_set[k].seq == seq) ++k;
        break;
      }
      floor = lj + 1;
      out.push_back(Instance{seq, inst.first, lj});
    }
  }
  if (next_queries != nullptr) *next_queries += queries;
}

std::span<const EventId> AppendOccurrenceBound::Filter(
    const InvertedIndex& index, const SupportSet& support_set,
    std::span<const EventId> candidates, uint64_t threshold) {
  GSGROW_DCHECK(IsRightShiftSorted(support_set));
  runs_.clear();
  uint64_t distinct_events = 0;
  for (const Instance& inst : support_set) {
    if (!runs_.empty() && runs_.back().first == inst.seq) {
      runs_.back().second++;
      continue;
    }
    runs_.emplace_back(inst.seq, 1u);
    // A sequence hosting an instance is non-empty, so its block exists.
    distinct_events += index.seq_block(inst.seq)->num_events();
  }
  // |candidates| < distinct_events / |runs|, without the division.
  if (candidates.size() * runs_.size() < distinct_events) return candidates;

  for (EventId e : touched_) bound_[e] = 0;
  touched_.clear();
  if (bound_.size() < index.alphabet_size()) {
    bound_.resize(index.alphabet_size(), 0);
  }
  for (const auto& [seq, n] : runs_) {
    const InvertedIndex::SeqBlock& block = *index.seq_block(seq);
    for (size_t k = 0; k < block.events.size(); ++k) {
      const EventId e = block.events[k];
      GSGROW_DCHECK(e < bound_.size());
      const uint32_t count = block.offsets[k + 1] - block.offsets[k];
      if (bound_[e] == 0) touched_.push_back(e);
      bound_[e] += std::min(n, count);
    }
  }
  kept_.clear();
  for (EventId e : candidates) {
    if (bound_[e] >= threshold) kept_.push_back(e);
  }
  return kept_;
}

SupportSet GrowSupportSetReference(const InvertedIndex& index,
                                   const SupportSet& support_set, EventId e) {
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
      const Position from = std::max(floor, inst.last + 1);
      const Position lj = index.NextAtOrAfter(seq, e, from);
      if (lj == kNoPosition) {
        while (k < n && support_set[k].seq == seq) ++k;
        break;
      }
      floor = lj + 1;
      out.push_back(Instance{seq, inst.first, lj});
    }
  }
  return out;
}

SupportSet ComputeSupportSet(const InvertedIndex& index,
                             const Pattern& pattern) {
  if (pattern.empty()) return {};
  SupportSet set = RootInstances(index, pattern[0]);
  for (size_t j = 1; j < pattern.size(); ++j) {
    set = GrowSupportSet(index, set, pattern[j]);
  }
  return set;
}

uint64_t ComputeSupport(const InvertedIndex& index, const Pattern& pattern) {
  return ComputeSupportSet(index, pattern).size();
}

std::vector<FullInstance> ComputeFullSupportSet(const InvertedIndex& index,
                                                const Pattern& pattern) {
  std::vector<FullInstance> set;
  if (pattern.empty()) return set;
  for (const InvertedIndex::Posting& posting : index.Postings(pattern[0])) {
    for (Position p : index.Positions(posting.seq, pattern[0])) {
      set.push_back(FullInstance{posting.seq, {p}});
    }
  }
  for (size_t j = 1; j < pattern.size(); ++j) {
    const EventId e = pattern[j];
    std::vector<FullInstance> grown;
    grown.reserve(set.size());
    size_t k = 0;
    const size_t n = set.size();
    while (k < n) {
      const SeqId seq = set[k].seq;
      Position floor = 0;
      for (; k < n && set[k].seq == seq; ++k) {
        const Position last = set[k].landmark.back();
        const Position from = std::max(floor, last + 1);
        const Position lj = index.NextAtOrAfter(seq, e, from);
        if (lj == kNoPosition) {
          while (k < n && set[k].seq == seq) ++k;
          break;
        }
        floor = lj + 1;
        FullInstance inst = std::move(set[k]);
        inst.landmark.push_back(lj);
        grown.push_back(std::move(inst));
      }
    }
    set = std::move(grown);
  }
  return set;
}

std::vector<uint32_t> PerSequenceSupport(const InvertedIndex& index,
                                         const Pattern& pattern) {
  std::vector<uint32_t> counts(index.num_sequences(), 0);
  for (const Instance& inst : ComputeSupportSet(index, pattern)) {
    counts[inst.seq]++;
  }
  return counts;
}

}  // namespace gsgrow
