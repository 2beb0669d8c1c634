#include "core/instance_growth.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace gsgrow {

SupportSet RootInstances(const InvertedIndex& index, EventId e) {
  SupportSet out;
  for (const SeqId seq : index.Postings(e)) {
    for (Position p : index.Positions(seq, e)) {
      out.push_back(Instance{seq, p, p});
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

namespace {

// INSgrow (Algorithm 2) over one sequence's run of instances, appending the
// grown instances to `out`; returns the number of next() queries. Within a
// run the query bounds are non-decreasing (rising floor, rising last
// landmarks), which is exactly the cursor's contract.
uint64_t GrowRun(std::span<const Instance> run, PositionCursor cursor,
                 SupportSet& out) {
  uint64_t queries = 0;
  // last_position of Algorithm 2 folded into a ">= floor" bound.
  Position floor = 0;
  for (const Instance& inst : run) {
    const Position lj = cursor.NextAtOrAfter(std::max(floor, inst.last + 1));
    ++queries;
    // Algorithm 2 line 5: no occurrence left for this instance; later
    // instances of the run have even larger lower bounds.
    if (lj == kNoPosition) break;
    floor = lj + 1;
    out.push_back(Instance{inst.seq, inst.first, lj});
  }
  return queries;
}

// Length of the run of `set` starting at `row`: the rows sharing its
// sequence.
size_t RunLength(const SupportSet& set, size_t row) {
  size_t end = row + 1;
  while (end < set.size() && set[end].seq == set[row].seq) ++end;
  return end - row;
}

}  // namespace

void GrowSupportSetInto(const InvertedIndex& index,
                        const SupportSet& support_set, EventId e,
                        SupportSet& out, uint64_t* next_queries) {
  GSGROW_DCHECK(IsRightShiftSorted(support_set));
  GSGROW_DCHECK(&out != &support_set);
  out.clear();
  // No reserve: `out` usually ends far smaller than its input, and a pooled
  // buffer sized to its parent keeps that capacity for the rest of the run.
  uint64_t queries = 0;
  for (size_t row = 0; row < support_set.size();) {
    const size_t n = RunLength(support_set, row);
    // One slot resolution for the whole run of this sequence's instances.
    const PositionCursor cursor = index.Cursor(support_set[row].seq, e);
    if (!cursor.empty()) {
      queries += GrowRun(std::span(support_set).subspan(row, n), cursor, out);
    }
    row += n;
  }
  if (next_queries != nullptr) *next_queries += queries;
}

bool AppendOccurrenceBound::ProbesRun(size_t candidates,
                                      size_t block_events) {
  return candidates * std::bit_width(block_events) < block_events;
}

std::span<const EventId> AppendOccurrenceBound::Filter(
    const InvertedIndex& index, const SupportSet& support_set,
    std::span<const EventId> candidates, uint64_t threshold) {
  GSGROW_DCHECK(IsRightShiftSorted(support_set));
  index_ = &index;
  support_set_ = &support_set;
  runs_.clear();
  run_hits_.clear();
  // bound_[0] is the sink; candidate j's bound is bound_[j + 1].
  bound_.assign(candidates.size() + 1, 0);
  if (candidate_of_.size() < index.alphabet_size()) {
    candidate_of_.resize(index.alphabet_size(), 0);
  }
  for (size_t j = 0; j < candidates.size(); ++j) {
    // Events beyond the alphabet occur nowhere; the walk never meets them.
    if (candidates[j] < candidate_of_.size()) {
      candidate_of_[candidates[j]] = static_cast<uint32_t>(j + 1);
    }
  }
  // Both intersections below write a hit slot on every step and advance
  // the write cursor `w` only past real hits; a miss adds to the sink.
  uint32_t w = 0;
  for (size_t row = 0; row < support_set.size();) {
    const SeqId seq = support_set[row].seq;
    const uint32_t n = static_cast<uint32_t>(RunLength(support_set, row));
    row += n;
    runs_.emplace_back(seq, n);
    run_hits_.push_back(w);
    // A sequence hosting an instance is non-empty, so its block exists.
    const InvertedIndex::SeqBlock& block = *index.seq_block(seq);
    const size_t events = block.num_events();
    // A run writes at most one slot per block event (probing writes one per
    // candidate, and probes only with fewer candidates than events).
    // Capacity doubles as push_back's would; only the slots a run may write
    // are initialized.
    if (hits_.size() < w + events) {
      hits_.reserve(std::bit_ceil(w + events));
      hits_.resize(w + events);
    }
    Hit* hits = hits_.data();
    uint64_t* bound = bound_.data();
    const uint32_t* offsets = block.offsets.data();
    if (ProbesRun(candidates.size(), events)) {
      for (size_t j = 0; j < candidates.size(); ++j) {
        const size_t k = block.SeekSlot(candidates[j]);
        const bool found = block.events[k] == candidates[j];
        const uint32_t count = offsets[k + 1] - offsets[k];
        bound[found ? j + 1 : 0] += std::min(n, count);
        hits[w] = Hit{static_cast<uint32_t>(j), static_cast<uint32_t>(k)};
        w += found;
      }
    } else {
      for (size_t k = 0; k < events; ++k) {
        const uint32_t j = candidate_of_[block.events[k]];
        const uint32_t count = offsets[k + 1] - offsets[k];
        bound[j] += std::min(n, count);
        hits[w] = Hit{j - 1, static_cast<uint32_t>(k)};
        w += j != 0;
      }
    }
  }
  run_hits_.push_back(w);
  for (EventId e : candidates) {
    if (e < candidate_of_.size()) candidate_of_[e] = 0;
  }
  kept_.clear();
  kept_index_.assign(candidates.size(), kNone);
  for (size_t j = 0; j < candidates.size(); ++j) {
    if (bound_[j + 1] < threshold) continue;
    kept_index_[j] = static_cast<uint32_t>(kept_.size());
    kept_.push_back(candidates[j]);
  }
  return kept_;
}

void AppendOccurrenceBound::Grow(std::span<SupportSet> children,
                                 uint64_t* next_queries) {
  GSGROW_DCHECK(children.size() == kept_.size());
  for (SupportSet& child : children) child.clear();
  uint64_t queries = 0;
  std::span<const Instance> rows(*support_set_);
  for (size_t r = 0; r < runs_.size(); ++r) {
    const auto [seq, n] = runs_[r];
    const InvertedIndex::SeqBlock& block = *index_->seq_block(seq);
    // Run by run, so every child receives its instances in right-shift
    // order.
    for (uint32_t h = run_hits_[r]; h < run_hits_[r + 1]; ++h) {
      const uint32_t j = kept_index_[hits_[h].candidate];
      if (j == kNone) continue;
      queries += GrowRun(rows.first(n),
                         PositionCursor(block.Slot(hits_[h].slot)),
                         children[j]);
    }
    rows = rows.subspan(n);
  }
  *next_queries += queries;
}

void InsertIntervalCheck::Reset(const InvertedIndex& index,
                                std::span<const EventId> pattern,
                                std::span<const SupportSet> prefix_sets) {
  GSGROW_DCHECK(!pattern.empty() && prefix_sets.size() >= pattern.size());
  index_ = &index;
  pattern_ = pattern;
  prefix_sets_ = prefix_sets;
  const size_t m = pattern.size();
  const SupportSet& support_set = prefix_sets[m - 1];
  GSGROW_DCHECK(IsRightShiftSorted(support_set));
  support_ = support_set.size();
  runs_.clear();
  blocks_.clear();
  row_begin_.clear();
  for (size_t row = 0; row < support_; ++row) {
    if (!runs_.empty() && runs_.back().first == support_set[row].seq) {
      runs_.back().second++;
      continue;
    }
    runs_.emplace_back(support_set[row].seq, 1u);
    // A sequence hosting an instance is non-empty, so its block exists.
    blocks_.push_back(index.seq_block(support_set[row].seq));
    row_begin_.push_back(static_cast<uint32_t>(row));
  }
  built_from_.assign(runs_.size(), static_cast<uint32_t>(m));
  candidates_.clear();
  resolved_.clear();
  // Grow-only: contents are written before they are read (built_from_,
  // resolved_), so steady state neither allocates nor clears.
  if (left_row_.size() < m * runs_.size()) left_row_.resize(m * runs_.size());
  if (right_.size() < m * support_) right_.resize(m * support_);
  if (inserted_.size() < support_) inserted_.resize(support_);
}

uint32_t* InsertIntervalCheck::NextSlotRow() {
  const size_t end = (candidates_.size() + 1) * runs_.size();
  if (slots_.size() < end) slots_.resize(end);
  return slots_.data() + candidates_.size() * runs_.size();
}

void InsertIntervalCheck::AddCandidate(EventId e) {
  NextSlotRow();
  candidates_.push_back(e);
  resolved_.push_back(0);
}

bool InsertIntervalCheck::AddCandidateIfCounted(EventId e,
                                                uint32_t first_slot) {
  GSGROW_DCHECK(blocks_[0]->events[first_slot] == e);
  uint32_t* slots = NextSlotRow();
  for (size_t r = 0; r < runs_.size(); ++r) {
    const InvertedIndex::SeqBlock& block = *blocks_[r];
    const size_t k = r == 0 ? first_slot : block.SeekSlot(e);
    if (block.events[k] != e ||
        block.offsets[k + 1] - block.offsets[k] < runs_[r].second) {
      return false;
    }
    slots[r] = static_cast<uint32_t>(k);
  }
  candidates_.push_back(e);
  resolved_.push_back(static_cast<uint32_t>(runs_.size()));
  return true;
}

namespace {

// First row at or after `from` whose sequence is not below `seq`, found by
// galloping forward from `from`.
size_t GallopToSequence(const SupportSet& set, size_t from, SeqId seq) {
  if (from >= set.size() || set[from].seq >= seq) return from;
  size_t lo = from;  // set[lo].seq < seq
  size_t step = 1;
  while (lo + step < set.size() && set[lo + step].seq < seq) {
    lo += step;
    step <<= 1;
  }
  const size_t hi = std::min(lo + step, set.size());
  const Instance* rows = set.data();
  return static_cast<size_t>(
      std::lower_bound(rows + lo + 1, rows + hi, seq,
                       [](const Instance& inst, SeqId s) {
                         return inst.seq < s;
                       }) -
      rows);
}

}  // namespace

void InsertIntervalCheck::EnsureColumns(size_t r, size_t column,
                                        uint64_t* next_queries) {
  const size_t m = pattern_.size();
  const size_t num_runs = runs_.size();
  const auto [seq, n] = runs_[r];
  // Runs reach every column in ascending order: run r - 1 has built every
  // column run r builds here, so its left rows bound the search below.
  GSGROW_DCHECK(r == 0 || built_from_[r - 1] <= column);
  for (size_t c = built_from_[r]; c-- > column;) {
    const std::span<const Position> positions =
        index_->Positions(seq, pattern_[c]);
    Position* right = RightRows(c, r);
    if (c + 1 == m) {
      // The k-th rightmost instance ends at the k-th of the last n_i
      // occurrences of e_m; L's last column is the support set itself.
      GSGROW_DCHECK(positions.size() >= n);
      std::copy(positions.end() - n, positions.end(), right);
      left_row_[c * num_runs + r] = row_begin_[r];
    } else {
      // Mirrored INSgrow: row k takes the last occurrence of e_{c+1} before
      // both its own landmark in column c + 1 and row k + 1's pick.
      const Position* above = RightRows(c + 1, r);
      PositionCursor cursor(positions);
      Position ceiling = kNoPosition;
      for (uint32_t k = n; k-- > 0;) {
        ceiling = cursor.PrevBefore(std::min(ceiling, above[k]));
        ++*next_queries;
        GSGROW_DCHECK(ceiling != kNoPosition);
        right[k] = ceiling;
      }
    }
    if (c > 0) {
      const SupportSet& prefix = prefix_sets_[c - 1];
      // Run r - 1's rows in this prefix set end no later than run r's
      // begin: gallop forward from there.
      const size_t from =
          r == 0 ? 0
                 : left_row_[(c - 1) * num_runs + r - 1] + runs_[r - 1].second;
      const size_t first = GallopToSequence(prefix, from, seq);
      // sup_i of a prefix is at least n_i.
      GSGROW_DCHECK(prefix.size() - first >= n &&
                    prefix[first].seq == seq &&
                    prefix[first + n - 1].seq == seq);
      left_row_[(c - 1) * num_runs + r] = static_cast<uint32_t>(first);
    }
  }
  if (built_from_[r] > column) built_from_[r] = static_cast<uint32_t>(column);
}

bool InsertIntervalCheck::AdmitsCandidate(size_t gap, size_t candidate,
                                          uint64_t* next_queries) {
  GSGROW_DCHECK(gap < pattern_.size() && candidate < candidates_.size());
  gap_ = gap;
  const EventId e = candidates_[candidate];
  uint32_t* slots = slots_.data() + candidate * runs_.size();
  uint32_t& resolved = resolved_[candidate];
  uint64_t queries = 0;
  bool admitted = true;
  for (size_t r = 0; r < runs_.size() && admitted; ++r) {
    const uint32_t n = runs_[r].second;
    EnsureColumns(r, gap, &queries);
    const InvertedIndex::SeqBlock& block = *blocks_[r];
    // Pairs reach the runs in order, so a lazy list is resolved here, once.
    if (resolved == r) {
      const size_t k = block.SeekSlot(e);
      slots[r] = block.events[k] == e ? static_cast<uint32_t>(k) : kAbsent;
      ++resolved;
    }
    GSGROW_DCHECK(resolved > r);
    const Instance* left = gap > 0 ? LeftRows(gap - 1, r) : nullptr;
    const Position* right = RightRows(gap, r);
    Position* inserted = inserted_.data() + row_begin_[r];
    PositionCursor cursor = slots[r] == kAbsent
                                ? PositionCursor()
                                : PositionCursor(block.Slot(slots[r]));
    Position floor = 0;
    for (uint32_t k = 0; k < n; ++k) {
      if (left != nullptr) floor = std::max(floor, left[k].last + 1);
      const Position p = cursor.NextAtOrAfter(floor);
      ++queries;
      // kNoPosition is above every bound.
      if (p >= right[k]) {
        admitted = false;
        break;
      }
      inserted[k] = p;
      floor = p + 1;
    }
  }
  *next_queries += queries;
  return admitted;
}

bool InsertIntervalCheck::LastLandmarksMatch(uint64_t* next_queries,
                                             uint64_t* regrow_steps) {
  const size_t m = pattern_.size();
  uint64_t queries = 0;
  bool match = true;
  for (size_t r = 0; r < runs_.size() && match; ++r) {
    const auto [seq, n] = runs_[r];
    Position* column = inserted_.data() + row_begin_[r];
    // Regrown columns never lie left of L's (extremality of the leftmost
    // instances), so equality at the last column is condition (ii).
    bool converged = false;
    for (size_t c = gap_; c < m && !converged; ++c) {
      ++*regrow_steps;
      const Instance* left = LeftRows(c, r);
      PositionCursor cursor = index_->Cursor(seq, pattern_[c]);
      Position floor = 0;
      converged = true;
      for (uint32_t k = 0; k < n; ++k) {
        const Position p = cursor.NextAtOrAfter(std::max(floor, column[k] + 1));
        ++queries;
        // An admitted pair keeps all n_i rows.
        GSGROW_DCHECK(p != kNoPosition);
        column[k] = p;
        floor = p + 1;
        converged = converged && p == left[k].last;
      }
    }
    match = converged;
  }
  *next_queries += queries;
  return match;
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
  for (const SeqId seq : index.Postings(pattern[0])) {
    for (Position p : index.Positions(seq, pattern[0])) {
      set.push_back(FullInstance{seq, {p}});
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
