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
  blocks_.push_back(nullptr);
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

void IncrementalInvertedIndex::AddCorpus(std::span<const Sequence> sequences,
                                         EventId alphabet_size) {
  writer_lock_.AssertHeld();
  // A snapshot of the empty index may have advanced the epoch already: it
  // froze nothing, so no arena holds live bytes, and changed_ below makes
  // the next snapshot advance.
  // invariant: MiningService::Ingest refuses a non-empty service and
  // validates the corpus before it gets here.
  GSGROW_CHECK_MSG(seqs_.empty() && events_.empty(),
                   "bulk load into a non-empty index");
  // invariant: Ingest bounds the sequence count with Status(kOutOfRange).
  GSGROW_CHECK_MSG(sequences.size() <= static_cast<size_t>(kNoPosition),
                   "sequence id space exhausted");
  InvertedIndex::FrozenCorpus corpus =
      InvertedIndex::Freeze(sequences, alphabet_size);
  blocks_ = std::move(corpus.blocks);
  postings_ = std::move(corpus.postings);
  totals_ = std::move(corpus.totals);
  present_cache_ = std::move(corpus.present_events);
  seqs_.resize(sequences.size());
  events_.resize(postings_.size());
  changed_ = !sequences.empty();
  if (corpus.arena == nullptr) return;

  // Writer bookkeeping: everything lives in the one arena, all of it live.
  const uint32_t home = AdoptArena(std::move(corpus.arena));
  ArenaRecord& record = arenas_[home];
  record.seqs.reserve(blocks_.size());
  for (SeqId seq = 0; seq < blocks_.size(); ++seq) {
    const InvertedIndex::SeqBlock* block = blocks_[seq];
    if (block == nullptr) continue;
    SeqAccum& sa = seqs_[seq];
    sa.length = static_cast<Position>(block->offsets.back());
    sa.distinct = static_cast<uint32_t>(block->num_events());
    sa.home = home;
    total_events_ += sa.length;
    record.seqs.push_back(seq);
  }
  // Every present event gained occurrences this epoch (the next
  // EpochDelta's events); none has a recent list to publish.
  for (const EventId e : present_cache_) {
    events_[e].base_home = home;
    events_[e].dirty = true;
  }
  dirty_events_ = present_cache_;
  record.events = present_cache_;
  Acquire(home, record.arena->bytes_used());
}

void IncrementalInvertedIndex::RecordPosting(SeqId seq, EventId e) {
  writer_lock_.AssertHeld();
  if (e >= events_.size()) {
    events_.resize(static_cast<size_t>(e) + 1);
    postings_.resize(static_cast<size_t>(e) + 1);
    totals_.resize(static_cast<size_t>(e) + 1, 0);
    present_dirty_ = true;  // a new event id extends the present list
  }
  EventAccum& ea = events_[e];
  if (totals_[e]++ == 0) present_dirty_ = true;  // first occurrence ever
  if (!ea.dirty) {
    ea.dirty = true;
    dirty_events_.push_back(e);
  }
  if (ea.last_seq == seq) return;
  ea.last_seq = seq;
  // The sequence holds `e` already iff its frozen block does (every
  // occurrence up to the last snapshot) or `recent` has it (every sequence
  // gained since then). A further occurrence leaves the postings alone.
  const InvertedIndex::SeqBlock* block = blocks_[seq];
  if (block != nullptr && block->events[block->SeekSlot(e)] == e) return;
  std::vector<SeqId>& recent = ea.recent;
  if (recent.empty() || recent.back() < seq) {
    recent.push_back(seq);
  } else {
    // An append to an OLD sequence can introduce the event mid-list: an
    // O(recent) insert, charged to the first occurrence of an event in an
    // old sequence (DESIGN.md §8 cost model).
    const auto it = std::lower_bound(recent.begin(), recent.end(), seq);
    if (*it == seq) return;
    recent.insert(it, seq);
  }
  ++seqs_[seq].distinct;
  if (!ea.postings_dirty) {
    ea.postings_dirty = true;
    dirty_postings_.push_back(e);
  }
}

void IncrementalInvertedIndex::Acquire(uint32_t home, size_t bytes) {
  writer_lock_.AssertHeld();
  arenas_[home].live += bytes;
  live_bytes_ += bytes;
}

void IncrementalInvertedIndex::Release(uint32_t home, size_t bytes) {
  writer_lock_.AssertHeld();
  GSGROW_DCHECK(arenas_[home].live >= bytes);
  arenas_[home].live -= bytes;
  live_bytes_ -= bytes;
}

uint32_t IncrementalInvertedIndex::AdoptArena(std::shared_ptr<Arena> arena) {
  writer_lock_.AssertHeld();
  uint32_t slot;
  if (free_arena_slots_.empty()) {
    slot = static_cast<uint32_t>(arenas_.size());
    arenas_.emplace_back();
  } else {
    slot = free_arena_slots_.back();
    free_arena_slots_.pop_back();
  }
  reserved_bytes_ += arena->bytes_reserved();
  arenas_[slot].arena = std::move(arena);
  return slot;
}

void IncrementalInvertedIndex::Relocate(uint32_t from, uint32_t to) {
  writer_lock_.AssertHeld();
  ArenaRecord& target = arenas_[to];
  const auto move = [&](size_t bytes) {
    Release(from, bytes);
    Acquire(to, bytes);
  };
  for (const SeqId seq : arenas_[from].seqs) {
    if (seqs_[seq].home != from) continue;
    move(blocks_[seq]->Footprint());
    blocks_[seq] = blocks_[seq]->CopyTo(*target.arena);
    seqs_[seq].home = to;
    target.seqs.push_back(seq);
  }
  // Moves one postings array if it lives in `from`.
  const auto move_array = [&](const SeqId*& data, uint32_t size,
                              uint32_t& home) {
    if (home != from) return false;
    move(Arena::ArrayFootprint<SeqId>(size));
    data = target.arena->CopyArray(std::span(data, size)).data();
    home = to;
    return true;
  };
  for (const EventId e : arenas_[from].events) {
    EventAccum& ea = events_[e];
    InvertedIndex::EventPostings& p = postings_[e];
    const bool base = move_array(p.base, p.base_size, ea.base_home);
    const bool recent = move_array(p.recent, p.recent_size, ea.recent_home);
    if (base || recent) target.events.push_back(e);
  }
  GSGROW_DCHECK(arenas_[from].live == 0);
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
  if (blocks_[seq] != nullptr) {
    const InvertedIndex::SeqBlock& block = *blocks_[seq];
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

  // Plan this epoch's arena. What the freeze replaces stops being live;
  // the arena holds the dirty blocks, the dirty events' postings, and the
  // survivors of every arena whose live share fell below one half.
  size_t bytes = 0;
  for (const SeqId seq : dirty_seqs_) {
    const SeqAccum& sa = seqs_[seq];
    if (blocks_[seq] != nullptr) Release(sa.home, blocks_[seq]->Footprint());
    bytes += InvertedIndex::SeqBlock::Footprint(sa.distinct, sa.length);
  }
  // A dirty event republishes its recent list, or merges it into a new
  // base once recent^2 > base: the per-epoch copy stays O(sqrt(base)) and
  // the merges cost O(sqrt(base)) per gained sequence, where a fixed
  // fraction of the base would make one of them O(base).
  const auto merges = [](size_t base, size_t recent) {
    return recent * recent > base;
  };
  for (const EventId e : dirty_postings_) {
    const EventAccum& ea = events_[e];
    const InvertedIndex::EventPostings& p = postings_[e];
    if (p.recent_size != 0) {
      Release(ea.recent_home, Arena::ArrayFootprint<SeqId>(p.recent_size));
    }
    size_t size = ea.recent.size();
    if (merges(p.base_size, size)) {
      if (p.base_size != 0) {
        Release(ea.base_home, Arena::ArrayFootprint<SeqId>(p.base_size));
      }
      size += p.base_size;
    }
    bytes += Arena::ArrayFootprint<SeqId>(size);
  }
  std::vector<uint32_t> relocated;
  for (uint32_t slot = 0; slot < arenas_.size(); ++slot) {
    const ArenaRecord& record = arenas_[slot];
    if (record.arena == nullptr || record.live == 0) continue;
    if (2 * record.live < record.arena->bytes_reserved()) {
      relocated.push_back(slot);
      bytes += record.live;
    }
  }

  // Freeze: one CSR build per dirty sequence (its frozen block plus its
  // tail, O(length)), one array per dirty event, then the survivors.
  // Clean blocks and postings stay where they are, shared with every
  // earlier snapshot that references them.
  const uint32_t delta_home =
      bytes == 0 ? kNoArena : AdoptArena(std::make_shared<Arena>(bytes));
  ArenaRecord* delta_record =
      delta_home == kNoArena ? nullptr : &arenas_[delta_home];
  for (const SeqId seq : dirty_seqs_) {
    SeqAccum& sa = seqs_[seq];
    blocks_[seq] =
        block_builder_.Build(blocks_[seq], sa.tail, *delta_record->arena);
    sa.home = delta_home;
    Acquire(delta_home, blocks_[seq]->Footprint());
    delta_record->seqs.push_back(seq);
    // Release the tail: a frozen sequence keeps no writer-side copy.
    sa.tail = std::vector<EventId>();
  }
  dirty_seqs_.clear();

  // A count changed exactly when some event is dirty.
  if (!dirty_events_.empty() || published_totals_ == nullptr) {
    published_totals_ =
        std::make_shared<const InvertedIndex::EventTotals>(totals_);
  }
  for (const EventId e : dirty_events_) events_[e].dirty = false;
  dirty_events_.clear();

  for (const EventId e : dirty_postings_) {
    EventAccum& ea = events_[e];
    InvertedIndex::EventPostings& p = postings_[e];
    Arena& arena = *delta_record->arena;
    if (merges(p.base_size, ea.recent.size())) {
      const std::span<SeqId> base =
          arena.AllocateArray<SeqId>(p.base_size + ea.recent.size());
      std::merge(p.base, p.base + p.base_size, ea.recent.begin(),
                 ea.recent.end(), base.begin());
      p = {base.data(), nullptr, static_cast<uint32_t>(base.size()), 0};
      ea.base_home = delta_home;
      ea.recent_home = kNoArena;
      ea.recent = std::vector<SeqId>();
      Acquire(delta_home, Arena::ArrayFootprint<SeqId>(base.size()));
    } else {
      p.recent = arena.CopyArray(std::span<const SeqId>(ea.recent)).data();
      p.recent_size = static_cast<uint32_t>(ea.recent.size());
      ea.recent_home = delta_home;
      Acquire(delta_home, Arena::ArrayFootprint<SeqId>(ea.recent.size()));
    }
    delta_record->events.push_back(e);
    ea.postings_dirty = false;
  }
  dirty_postings_.clear();

  for (const uint32_t slot : relocated) Relocate(slot, delta_home);
  GSGROW_DCHECK(delta_record == nullptr ||
                delta_record->live == delta_record->arena->bytes_reserved());

  // Drop every arena nothing current lives in; held snapshots keep theirs.
  for (uint32_t slot = 0; slot < arenas_.size(); ++slot) {
    ArenaRecord& record = arenas_[slot];
    if (record.arena == nullptr || record.live != 0) continue;
    reserved_bytes_ -= record.arena->bytes_reserved();
    record = ArenaRecord();
    free_arena_slots_.push_back(slot);
  }

  if (present_dirty_) {
    present_cache_.clear();
    for (EventId e = 0; e < totals_.size(); ++e) {
      if (totals_[e] > 0) present_cache_.push_back(e);
    }
    present_dirty_ = false;
  }

  // Assemble the view: flat copies of the pointer tables, and one
  // reference per live arena.
  std::vector<std::shared_ptr<const Arena>> arenas;
  arenas.reserve(arenas_.size() - free_arena_slots_.size());
  for (const ArenaRecord& record : arenas_) {
    if (record.arena != nullptr) arenas.push_back(record.arena);
  }
  return InvertedIndex(blocks_, postings_, std::move(arenas),
                       published_totals_, present_cache_, alphabet_size());
}

}  // namespace gsgrow
