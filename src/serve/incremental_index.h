// Incremental inverted index with epoch snapshots (DESIGN.md §8).
//
// The batch InvertedIndex sorts the whole database on construction; a
// serving deployment cannot afford that per append, nor can it mutate an
// index that in-flight mining runs are reading. IncrementalInvertedIndex
// splits the two roles:
//
//  * WRITER SIDE — per-sequence accumulators keep the tail of events
//    appended since the last freeze, so recording an appended event is one
//    push onto that tail (O(1) amortized); per event, the sequences gained
//    since its postings base was frozen are kept sorted in a short
//    `recent` list.
//
//  * READER SIDE — Snapshot() freezes the accumulators that changed since
//    the previous snapshot — a dirty sequence's block is rebuilt from its
//    frozen block plus its tail (InvertedIndex::SeqBlockBuilder,
//    O(sequence length)); a dirty event publishes its recent list, or
//    merges it into a new base once it outgrows the square root of the
//    base — into one exactly sized arena, and assembles an InvertedIndex
//    view that SHARES everything unchanged with earlier snapshots. The
//    snapshot is a plain InvertedIndex: every miner facade, annotator, and
//    bench runs against it unchanged, and the differential suite pins its
//    query surface to a from-scratch batch build bit for bit.
//
// Memory follows the live index, not the epoch count: the writer tracks
// the live bytes of every arena it still references, drops an arena when
// nothing current lives in it, and when an arena's live share falls below
// one half, Snapshot() relocates its current blocks and postings into that
// epoch's arena. The writer therefore reserves at most twice its live
// bytes; an arena survives past that only while a held snapshot still
// references it. Relocation moves bytes, not content: it is not an epoch
// advance, and EpochDelta never reports it.
//
// Epoch protocol: each Snapshot() call advances the epoch. A frozen block
// is never mutated — an append to a frozen sequence marks its accumulator
// dirty, and the NEXT snapshot re-freezes just that sequence. Snapshot
// cost is O(delta) plus amortized relocation (each copied byte frees at
// least one) plus a flat copy of the view's pointer tables; appends never
// block readers of previously taken snapshots.
//
// Bulk load: AddCorpus freezes a whole corpus into an empty index in one
// pass, the batch build's (InvertedIndex::Freeze), so loading n sequences
// costs one batch build rather than n tails plus a freeze of all of them.
//
// Threading contract: single writer, externally synchronized —
// AddSequence/AppendToSequence/AddCorpus/Snapshot must be serialized by the
// caller (MiningService holds the mutex). Snapshots are immutable and readable
// from any thread; handing one to another thread is the caller's
// synchronization point (tests/serve/snapshot_isolation_test.cc runs this
// under ThreadSanitizer).

#ifndef GSGROW_SERVE_INCREMENTAL_INDEX_H_
#define GSGROW_SERVE_INCREMENTAL_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/inverted_index.h"
#include "core/sequence.h"
#include "core/types.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace gsgrow {

/// What one epoch advance changed — the input to the result cache's
/// clean/dirty revalidation (serve/result_cache.h). Captured by
/// Snapshot(&delta) from the dirty lists BEFORE they are cleared, so the
/// delta is exactly the data the freeze loop walked. Conservative by
/// construction after recovery: a post-recover first snapshot reports the
/// whole re-fed corpus as dirty, never less than what changed.
struct EpochDelta {
  /// The epoch the producing snapshot landed on.
  uint64_t epoch = 0;
  /// False when the snapshot observed nothing new (no epoch advance, no
  /// delta to apply); consumers drop such deltas.
  bool advanced = false;
  /// Events that gained occurrences this epoch, ascending.
  std::vector<EventId> events;
  /// PRE-EXISTING sequences (known to the previous snapshot) that received
  /// appended events this epoch, ascending. Brand-new sequences are NOT
  /// listed here — their events appear in `events`, which is what the
  /// cache's alphabet-intersection test consumes.
  std::vector<SeqId> appended_seqs;
  /// Sequences born this epoch (includes empty ones, which dirty no
  /// accumulator but do change num_sequences).
  size_t new_sequences = 0;
};

class IncrementalInvertedIndex {
 public:
  IncrementalInvertedIndex() = default;

  /// Registers a new (possibly empty) sequence; returns its SeqId.
  SeqId AddSequence(std::span<const EventId> events);

  /// Appends events to the END of existing sequence `seq`.
  void AppendToSequence(SeqId seq, std::span<const EventId> events);

  /// Bulk load into an EMPTY index (no sequence yet; snapshots of the empty
  /// index may have been taken): `sequences` become sequences 0..n-1,
  /// frozen in one pass by InvertedIndex::Freeze into one exactly sized
  /// arena (no tails, no per-event `recent` lists). The next Snapshot()
  /// only assembles the view, and reports the same epoch and EpochDelta as
  /// n AddSequence calls would have: every present event, no appended
  /// sequences, new_sequences = n. `alphabet_size` is the largest event id
  /// plus one (0 when there is no event); no event may be kNoEvent.
  void AddCorpus(std::span<const Sequence> sequences, EventId alphabet_size);

  /// Immutable view of everything recorded so far. Clean sequences/events
  /// share their frozen blocks with prior snapshots; only the dirty delta
  /// is frozen anew. Calling twice with no appends in between returns an
  /// equal view for O(pointer copies). When `delta` is non-null it receives
  /// what this snapshot froze (EpochDelta above) — the serving layer feeds
  /// it to the result cache's revalidation pass.
  InvertedIndex Snapshot(EpochDelta* delta = nullptr);

  /// Data version: how many snapshots have observed NEW data. Snapshots
  /// taken with no intervening append return the previous epoch — two
  /// snapshots with equal epochs are views of the identical corpus.
  uint64_t epoch() const {
    writer_lock_.AssertHeld();
    return epoch_;
  }

  /// True when the NEXT Snapshot() will advance the epoch (new data since
  /// the last one, or no snapshot taken yet). The durability layer logs the
  /// epoch advance as a WAL record before taking that snapshot.
  bool pending_epoch_advance() const {
    writer_lock_.AssertHeld();
    return changed_ || epoch_ == 0;
  }

  /// Recovery hook: pins the epoch counter to the checkpointed value after
  /// the checkpointed corpus has been re-fed through AddSequence. Only
  /// valid before the first Snapshot(); subsequent snapshots resume the
  /// pre-crash epoch trajectory (serve/durability.h).
  void RestoreEpoch(uint64_t epoch);

  size_t num_sequences() const {
    writer_lock_.AssertHeld();
    return seqs_.size();
  }
  EventId alphabet_size() const {
    writer_lock_.AssertHeld();
    return static_cast<EventId>(events_.size());
  }
  uint64_t total_events() const {
    writer_lock_.AssertHeld();
    return total_events_;
  }

  /// Writer-side length of sequence `seq` (includes unfrozen appends).
  Position SequenceLength(SeqId seq) const;

  /// Overwrites `*out` with the events of sequence `seq` in position order:
  /// its frozen block scattered back by position, then its unfrozen tail.
  /// O(length). The index is the serving layer's only copy of the corpus,
  /// so the checkpoint writer reads sequences through this.
  void SequenceEvents(SeqId seq, std::vector<EventId>* out) const;

  /// Sequences the next Snapshot() re-freezes / events that gained
  /// occurrences since the last snapshot (the next EpochDelta's events).
  /// Exposed for the cost model assertions in tests.
  size_t dirty_sequences() const {
    writer_lock_.AssertHeld();
    return dirty_seqs_.size();
  }
  size_t dirty_events() const {
    writer_lock_.AssertHeld();
    return dirty_events_.size();
  }

  /// Arena bytes holding blocks and postings that the next snapshot would
  /// still reference (headers, padding and red zones included).
  size_t live_bytes() const {
    writer_lock_.AssertHeld();
    return live_bytes_;
  }
  /// Heap bytes of the arenas the writer still references. After every
  /// Snapshot(), reserved_bytes() <= 2 * live_bytes().
  size_t reserved_bytes() const {
    writer_lock_.AssertHeld();
    return reserved_bytes_;
  }

 private:
  static constexpr uint32_t kNoArena = static_cast<uint32_t>(-1);
  static constexpr SeqId kNoSeq = static_cast<SeqId>(-1);

  struct SeqAccum {
    Position length = 0;
    // Distinct events, the tail's included: with `length`, the footprint
    // of the block the next freeze builds.
    uint32_t distinct = 0;
    // Slot in arenas_ of the arena holding the frozen block.
    uint32_t home = kNoArena;
    // Events appended since the last freeze, in position order: they sit
    // at positions length - tail.size() .. length - 1. A non-empty tail is
    // what makes the sequence dirty.
    std::vector<EventId> tail;
  };

  struct EventAccum {
    // Sequences that gained the event since its base was frozen,
    // ascending; the published `recent` array is a copy of it.
    std::vector<SeqId> recent;
    // The sequence of the last occurrence recorded: a repeat needs no
    // postings lookup.
    SeqId last_seq = kNoSeq;
    // Slots in arenas_ of the published base and recent arrays.
    uint32_t base_home = kNoArena;
    uint32_t recent_home = kNoArena;
    // Gained occurrences / gained a sequence since the last snapshot.
    bool dirty = false;
    bool postings_dirty = false;
  };

  // One arena the writer still references.
  struct ArenaRecord {
    std::shared_ptr<Arena> arena;  // null while the slot is free
    // Footprint bytes of the current blocks and postings arrays in it.
    size_t live = 0;
    // Sequences / events frozen into it; an entry is current while its
    // home is still this slot.
    std::vector<SeqId> seqs;
    std::vector<EventId> events;
  };

  // Records one appended occurrence of `e` in sequence `seq`: its total,
  // and the postings entry when the sequence did not hold `e` yet.
  void RecordPosting(SeqId seq, EventId e);

  // Arena accounting: `bytes` of slot `home` become current / superseded.
  void Acquire(uint32_t home, size_t bytes);
  void Release(uint32_t home, size_t bytes);
  // Records `arena` in a free slot, with no live bytes yet.
  uint32_t AdoptArena(std::shared_ptr<Arena> arena);
  // Copies the current blocks and postings arrays of slot `from` into slot
  // `to`, leaving `from` with no live bytes.
  void Relocate(uint32_t from, uint32_t to);

  // Single-writer, externally-synchronized contract (file comment), made
  // machine-checkable: every method that touches the fields below opens
  // with writer_lock_.AssertHeld() — under -Werror=thread-safety a new
  // method that forgets is a build error (DESIGN.md §11).
  ExternalSerialization writer_lock_;

  std::vector<SeqAccum> seqs_ GSGROW_GUARDED_BY(writer_lock_);
  std::vector<EventAccum> events_ GSGROW_GUARDED_BY(writer_lock_);
  // The published tables a view copies, parallel to seqs_ / events_.
  std::vector<const InvertedIndex::SeqBlock*> blocks_
      GSGROW_GUARDED_BY(writer_lock_);
  std::vector<InvertedIndex::EventPostings> postings_
      GSGROW_GUARDED_BY(writer_lock_);
  std::vector<ArenaRecord> arenas_ GSGROW_GUARDED_BY(writer_lock_);
  std::vector<uint32_t> free_arena_slots_ GSGROW_GUARDED_BY(writer_lock_);
  size_t live_bytes_ GSGROW_GUARDED_BY(writer_lock_) = 0;
  size_t reserved_bytes_ GSGROW_GUARDED_BY(writer_lock_) = 0;
  // Occurrence count per event, kept as appends land; Snapshot() publishes
  // a copy when a count changed and otherwise re-shares the last one.
  InvertedIndex::EventTotals totals_ GSGROW_GUARDED_BY(writer_lock_);
  std::shared_ptr<const InvertedIndex::EventTotals> published_totals_
      GSGROW_GUARDED_BY(writer_lock_);
  // Clean→dirty transitions since the last snapshot; the freeze loop walks
  // exactly these instead of scanning the world.
  std::vector<SeqId> dirty_seqs_ GSGROW_GUARDED_BY(writer_lock_);
  std::vector<EventId> dirty_events_ GSGROW_GUARDED_BY(writer_lock_);
  std::vector<EventId> dirty_postings_ GSGROW_GUARDED_BY(writer_lock_);
  // Present-event list cache (ascending events with total > 0). Appends
  // only ever add occurrences, so the list changes only when a NEW event id
  // first appears; rebuilt lazily at snapshot time.
  std::vector<EventId> present_cache_ GSGROW_GUARDED_BY(writer_lock_);
  // Freeze scratch, reused across snapshots.
  InvertedIndex::SeqBlockBuilder block_builder_ GSGROW_GUARDED_BY(writer_lock_);
  bool present_dirty_ GSGROW_GUARDED_BY(writer_lock_) = false;
  uint64_t total_events_ GSGROW_GUARDED_BY(writer_lock_) = 0;
  uint64_t epoch_ GSGROW_GUARDED_BY(writer_lock_) = 0;
  // Any mutation since the last snapshot (covers empty-sequence adds,
  // which dirty no accumulator but do change num_sequences).
  bool changed_ GSGROW_GUARDED_BY(writer_lock_) = false;
  // Sequence count the previous Snapshot() observed — the boundary between
  // "appended-to pre-existing" and "brand-new" sequences in an EpochDelta.
  size_t last_snapshot_seq_count_ GSGROW_GUARDED_BY(writer_lock_) = 0;
};

}  // namespace gsgrow

#endif  // GSGROW_SERVE_INCREMENTAL_INDEX_H_
