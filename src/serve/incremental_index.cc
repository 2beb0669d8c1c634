#include "serve/incremental_index.h"

#include <algorithm>
#include <utility>

#include "util/arena.h"
#include "util/logging.h"

namespace gsgrow {

SeqId IncrementalInvertedIndex::AddSequence(std::span<const EventId> events) {
  writer_lock_.AssertHeld();
  // invariant: MiningService bounds the id space with Status(kOutOfRange)
  // before mutating; client input cannot reach this check.
  GSGROW_CHECK_MSG(seqs_.size() < static_cast<size_t>(kNoPosition),
                   "sequence id space exhausted");
  const SeqId seq = static_cast<SeqId>(seqs_.size());
  seqs_.emplace_back();
  changed_ = true;
  AppendToSequence(seq, events);
  return seq;
}

void IncrementalInvertedIndex::AppendToSequence(
    SeqId seq, std::span<const EventId> events) {
  writer_lock_.AssertHeld();
  // invariant: unknown ids / position overflow / reserved event ids are all
  // rejected with a Status at the MiningService layer first.
  GSGROW_CHECK_MSG(seq < seqs_.size(), "append to unknown sequence");
  SeqAccum& sa = seqs_[seq];
  // invariant: pre-validated by MiningService::CheckPositionSpace.
  GSGROW_CHECK_MSG(sa.length + events.size() <=
                       static_cast<size_t>(kNoPosition),
                   "sequence position space exhausted");
  if (events.empty()) return;
  changed_ = true;
  // --- Sequence side: the events join the tail; Snapshot() builds the
  // CSR lists from it. ---
  if (sa.tail.empty()) dirty_seqs_.push_back(seq);
  sa.tail.insert(sa.tail.end(), events.begin(), events.end());
  sa.length += static_cast<Position>(events.size());
  total_events_ += events.size();
  for (const EventId e : events) {
    // invariant: pre-validated by MiningService::CheckEventIds.
    GSGROW_CHECK_MSG(e != kNoEvent, "reserved event id");
    RecordPosting(seq, e);
  }
}

void IncrementalInvertedIndex::RecordPosting(SeqId seq, EventId e) {
  writer_lock_.AssertHeld();
  // Postings patch (counts ascend by sequence).
  if (e >= events_.size()) {
    events_.resize(static_cast<size_t>(e) + 1);
    totals_.resize(static_cast<size_t>(e) + 1, 0);
    present_dirty_ = true;  // a new event id extends the present list
  }
  EventAccum& ea = events_[e];
  if (totals_[e]++ == 0) present_dirty_ = true;  // first occurrence ever
  if (ea.postings.empty() || ea.postings.back().seq < seq) {
    ea.postings.push_back(InvertedIndex::Posting{seq, 1});
  } else if (ea.postings.back().seq == seq) {
    ++ea.postings.back().count;
  } else {
    // An append to an OLD sequence can introduce the event mid-list; the
    // insert is O(list length) and is charged to the (rare) first
    // occurrence of an event in an old sequence — subsequent occurrences
    // hit the count++ branch (DESIGN.md §8 cost model).
    const auto it = std::lower_bound(
        ea.postings.begin(), ea.postings.end(), seq,
        [](const InvertedIndex::Posting& a, SeqId s) { return a.seq < s; });
    if (it != ea.postings.end() && it->seq == seq) {
      ++it->count;
    } else {
      ea.postings.insert(it, InvertedIndex::Posting{seq, 1});
    }
  }
  if (!ea.dirty) {
    ea.dirty = true;
    dirty_events_.push_back(e);
  }
}

void IncrementalInvertedIndex::RestoreEpoch(uint64_t epoch) {
  writer_lock_.AssertHeld();
  // invariant: only OpenDurable calls this, before any snapshot exists;
  // epoch records from a hostile log are validated in ReplayRecord.
  GSGROW_CHECK_MSG(epoch_ == 0, "RestoreEpoch after a snapshot was taken");
  epoch_ = epoch;
  // The re-fed corpus is not "new data": a snapshot taken right after
  // recovery must report the checkpointed epoch, exactly as a snapshot
  // taken right after the checkpoint did. The accumulators stay dirty, so
  // that snapshot still freezes the world (a one-time O(corpus) cost).
  changed_ = false;
}

Position IncrementalInvertedIndex::SequenceLength(SeqId seq) const {
  writer_lock_.AssertHeld();
  // invariant: callers resolve ids against this index under the same lock.
  GSGROW_CHECK_MSG(seq < seqs_.size(), "unknown sequence");
  return seqs_[seq].length;
}

void IncrementalInvertedIndex::SequenceEvents(SeqId seq,
                                              std::vector<EventId>* out) const {
  writer_lock_.AssertHeld();
  // invariant: callers resolve ids against this index under the same lock.
  GSGROW_CHECK_MSG(seq < seqs_.size(), "unknown sequence");
  const SeqAccum& sa = seqs_[seq];
  out->resize(sa.length);
  if (sa.frozen != nullptr) {
    const InvertedIndex::SeqBlock& block = *sa.frozen;
    for (size_t k = 0; k < block.num_events(); ++k) {
      for (const Position p : block.Slot(k)) (*out)[p] = block.events[k];
    }
  }
  std::copy(sa.tail.begin(), sa.tail.end(), out->end() - sa.tail.size());
}

InvertedIndex IncrementalInvertedIndex::Snapshot(EpochDelta* delta) {
  writer_lock_.AssertHeld();
  // Epoch = data version: a snapshot with nothing new to observe reuses the
  // previous epoch (the view assembled below is identical either way).
  const bool advanced = changed_ || epoch_ == 0;
  if (advanced) {
    ++epoch_;
    changed_ = false;
  }
  // Capture the delta before the dirty lists are cleared below. The lists
  // hold first-dirty order; the cache wants sorted sets for binary-search /
  // merge-intersection, so sort the copies here (O(delta log delta), dwarfed
  // by the freeze itself).
  if (delta != nullptr) {
    delta->epoch = epoch_;
    delta->advanced = advanced;
    delta->events.assign(dirty_events_.begin(), dirty_events_.end());
    std::sort(delta->events.begin(), delta->events.end());
    delta->appended_seqs.clear();
    for (const SeqId seq : dirty_seqs_) {
      if (static_cast<size_t>(seq) < last_snapshot_seq_count_) {
        delta->appended_seqs.push_back(seq);
      }
    }
    std::sort(delta->appended_seqs.begin(), delta->appended_seqs.end());
    delta->new_sequences = seqs_.size() - std::min(last_snapshot_seq_count_,
                                                   seqs_.size());
  }
  last_snapshot_seq_count_ = seqs_.size();
  // Freeze the delta: one CSR build per dirty sequence (its frozen block
  // plus its tail, O(length)), one postings copy per dirty event. Clean
  // accumulators keep their published block — shared with every earlier
  // snapshot that references it. Everything frozen by THIS snapshot packs
  // into one arena, created only if there is a delta; it dies when the last
  // block referencing it does (which may be epochs later, if some of its
  // blocks stay clean).
  std::shared_ptr<Arena> arena;
  if (!dirty_seqs_.empty() || !dirty_events_.empty()) {
    arena = std::make_shared<Arena>();
  }
  for (const SeqId seq : dirty_seqs_) {
    SeqAccum& sa = seqs_[seq];
    sa.frozen = block_builder_.Build(sa.frozen.get(), sa.tail, arena);
    // Release the tail: a frozen sequence keeps no writer-side copy.
    sa.tail = std::vector<EventId>();
  }
  dirty_seqs_.clear();

  // A count changed exactly when some event is dirty.
  if (!dirty_events_.empty() || published_totals_ == nullptr) {
    published_totals_ =
        std::make_shared<const InvertedIndex::EventTotals>(totals_);
  }
  for (const EventId e : dirty_events_) {
    EventAccum& ea = events_[e];
    ea.frozen = InvertedIndex::BuildEventPostings(ea.postings, arena);
    ea.dirty = false;
  }
  dirty_events_.clear();

  if (present_dirty_) {
    present_cache_.clear();
    for (EventId e = 0; e < totals_.size(); ++e) {
      if (totals_[e] > 0) present_cache_.push_back(e);
    }
    present_dirty_ = false;
  }

  // Assemble the view: shared_ptr copies only.
  std::vector<std::shared_ptr<const InvertedIndex::SeqBlock>> blocks;
  blocks.reserve(seqs_.size());
  for (const SeqAccum& sa : seqs_) blocks.push_back(sa.frozen);
  std::vector<std::shared_ptr<const InvertedIndex::EventPostings>> postings;
  postings.reserve(events_.size());
  for (const EventAccum& ea : events_) postings.push_back(ea.frozen);
  return InvertedIndex(std::move(blocks), std::move(postings),
                       published_totals_, present_cache_, alphabet_size());
}

}  // namespace gsgrow
