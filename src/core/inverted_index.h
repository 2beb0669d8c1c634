// Inverted event index (paper Section III-D).
//
// For each (sequence, event) pair, the sorted list of positions where the
// event occurs: L_{e,S_i} = { p | S_i[p] = e }. The instance-growth operation
// INSgrow issues next(S, e, lowest) queries against it. Point queries
// (NextAtOrAfter) are answered with a binary search in O(log L); batched
// queries within one per-sequence run of a support set go through a
// PositionCursor, which resolves the (sequence, event) slot once and then
// advances with a galloping search — INSgrow's query bounds are
// non-decreasing within a run, so the amortized cost per query is
// O(1 + log of the step size) instead of a slot lookup plus a full binary
// search each time (DESIGN.md §5).
//
// Layout: per sequence, a CSR block — the sorted distinct events, offsets
// delimiting the per-event lists, and all position lists concatenated into
// one Position array. This is the paper's plain position-list index; every
// list is a contiguous std::span. Blocks are built by counting
// (SeqBlockBuilder). Additionally, per event, the ascending list of
// sequences that hold it (its postings) supports root instance-set
// construction and the host checks of the serving cache.
//
// Ownership: every block and postings array lives in an Arena
// (util/arena.h). An index holds raw pointers to them plus one
// shared_ptr<const Arena> per arena it reaches, so copying or releasing a
// view is a table copy with one refcount per arena, not per block
// (DESIGN.md §9). A batch build owns one exactly sized arena; a SNAPSHOT
// assembled by serve/IncrementalInvertedIndex shares the frozen blocks and
// postings of everything unchanged since earlier snapshots (DESIGN.md §8).
// Either way the object is immutable and safe to read from any number of
// threads.

#ifndef GSGROW_CORE_INVERTED_INDEX_H_
#define GSGROW_CORE_INVERTED_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "core/sequence_database.h"
#include "core/types.h"
#include "util/logging.h"

namespace gsgrow {

class Arena;

/// Forward-only reader over one (sequence, event) position list. The list is
/// resolved once at construction; successive NextAtOrAfter queries with
/// non-decreasing bounds advance an internal index with a galloping search,
/// never re-searching the already-consumed prefix. This is the query shape
/// of INSgrow within one per-sequence run (the `from` bound is the max of a
/// rising floor and the run's rising last landmarks).
class PositionCursor {
 public:
  /// Cursor over an absent event: every query answers kNoPosition.
  PositionCursor() = default;

  explicit PositionCursor(std::span<const Position> positions)
      : positions_(positions.data()),
        count_(static_cast<uint32_t>(positions.size())) {}

  /// Smallest unconsumed position p >= `from`, or kNoPosition. Queries MUST
  /// be issued with non-decreasing `from` (checked in debug builds): the
  /// cursor advances past every position < `from`, so a later query with a
  /// smaller bound would silently miss positions a fresh binary search
  /// could still find.
  Position NextAtOrAfter(Position from) {
#ifndef NDEBUG
    GSGROW_CHECK_MSG(from >= last_from_,
                     "PositionCursor bounds must be non-decreasing");
    last_from_ = from;
#endif
    if (idx_ >= count_) return kNoPosition;
    if (positions_[idx_] >= from) return positions_[idx_];
    // Gallop: double the step until it overshoots `from`, then binary-search
    // the last (lo, hi] bracket. Total work is O(log step), and consumed
    // positions are never revisited.
    size_t lo = idx_;  // positions_[lo] < from
    size_t step = 1;
    while (lo + step < count_ && positions_[lo + step] < from) {
      lo += step;
      step <<= 1;
    }
    const size_t hi = std::min<size_t>(lo + step, count_);
    const Position* it =
        std::lower_bound(positions_ + lo + 1, positions_ + hi, from);
    idx_ = static_cast<uint32_t>(it - positions_);
    return idx_ < count_ ? positions_[idx_] : kNoPosition;
  }

  /// Largest unconsumed position p < `bound`, or kNoPosition: the backward
  /// twin of NextAtOrAfter, used to build rightmost landmark columns
  /// (DESIGN.md §5). Queries MUST be issued with non-increasing `bound`
  /// (checked in debug builds): the cursor drops every position >= `bound`
  /// from its unconsumed range, galloping backward from the end. Callers
  /// drive a cursor in one direction only.
  Position PrevBefore(Position bound) {
#ifndef NDEBUG
    GSGROW_CHECK_MSG(bound <= last_bound_,
                     "PositionCursor bounds must be non-increasing");
    last_bound_ = bound;
#endif
    if (count_ <= idx_) return kNoPosition;
    if (positions_[count_ - 1] < bound) return positions_[count_ - 1];
    // Gallop backward: positions_[hi] >= bound; double the step until it
    // lands below `bound`, then binary-search the last [lo, hi) bracket.
    size_t hi = count_ - 1;
    size_t step = 1;
    while (hi >= idx_ + step && positions_[hi - step] >= bound) {
      hi -= step;
      step <<= 1;
    }
    const size_t lo = hi >= idx_ + step ? hi - step : idx_;
    const Position* it =
        std::lower_bound(positions_ + lo, positions_ + hi, bound);
    count_ = static_cast<uint32_t>(it - positions_);
    return count_ > idx_ ? positions_[count_ - 1] : kNoPosition;
  }

  /// True iff the underlying position list is empty (event absent in the
  /// sequence) — lets callers skip a whole run without issuing queries.
  /// Meaningful before the first query.
  bool empty() const { return count_ == 0; }

 private:
  const Position* positions_ = nullptr;
  uint32_t count_ = 0;  // one past the last unconsumed list index
  uint32_t idx_ = 0;    // first unconsumed list index
#ifndef NDEBUG
  Position last_from_ = 0;
  Position last_bound_ = kNoPosition;
#endif
};

/// Immutable index over a SequenceDatabase. The database must outlive the
/// index.
class InvertedIndex {
 public:
  /// Per-sequence CSR block: sorted distinct events, offsets delimiting the
  /// per-event position lists, and the lists themselves concatenated. The
  /// block and its arrays live in one Arena, which the views reaching the
  /// block keep alive. Immutable once published; snapshots of an
  /// incremental index share blocks across epochs.
  struct SeqBlock {
    /// Sorted distinct events of this sequence.
    std::span<const EventId> events;
    /// CSR offsets into `positions`: offsets[k+1] - offsets[k] is the
    /// occurrence count of events[k], offsets.back() the sequence length.
    std::span<const uint32_t> offsets;
    /// All position lists concatenated, each ascending.
    std::span<const Position> positions;

    size_t num_events() const { return events.size(); }

    /// The last slot whose event is <= `e`, or slot 0 when every event is
    /// above `e`; so `e` occurs iff events[SeekSlot(e)] == e. A
    /// branch-free halving search: its probe sequence depends only on
    /// num_events(), never on the data (DESIGN.md §9). The block must not
    /// be empty.
    size_t SeekSlot(EventId e) const {
      GSGROW_DCHECK(!events.empty());
      const EventId* first = events.data();
      size_t base = 0;
      for (size_t n = events.size(); n > 1; n -= n / 2) {
        const size_t half = n / 2;
        base += first[base + half] <= e ? half : 0;
      }
      return base;
    }

    /// The position list of slot `k`.
    std::span<const Position> Slot(size_t k) const {
      return positions.subspan(offsets[k], offsets[k + 1] - offsets[k]);
    }

    /// Bytes of list storage this block holds (its three arrays).
    size_t StorageBytes() const {
      return events.size_bytes() + offsets.size_bytes() +
             positions.size_bytes();
    }

    /// Arena bytes the block takes, header included: Footprint(
    /// num_events(), length).
    size_t Footprint() const;
    static size_t Footprint(size_t num_events, size_t length);

    /// A copy of this block, header and arrays, allocated in `arena`.
    const SeqBlock* CopyTo(Arena& arena) const;
  };

  /// The sequences holding one event, ascending: a `base` array shared
  /// across snapshot epochs plus a `recent` array of the sequences gained
  /// since the base was frozen (empty in a batch build). The two are
  /// disjoint and each ascending; PostingList merges them. Both arrays are
  /// arena-resident like SeqBlock.
  struct EventPostings {
    const SeqId* base = nullptr;
    const SeqId* recent = nullptr;
    uint32_t base_size = 0;
    uint32_t recent_size = 0;
  };

  /// The postings of one event as an ascending range of sequence ids: the
  /// one way readers iterate postings.
  class PostingList {
   public:
    class Iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = SeqId;
      using difference_type = std::ptrdiff_t;
      using pointer = const SeqId*;
      using reference = SeqId;

      Iterator() = default;
      Iterator(const SeqId* a, const SeqId* a_end, const SeqId* b,
               const SeqId* b_end)
          : a_(a), a_end_(a_end), b_(b), b_end_(b_end) {}

      SeqId operator*() const { return TakesBase() ? *a_ : *b_; }
      Iterator& operator++() {
        if (TakesBase()) {
          ++a_;
        } else {
          ++b_;
        }
        return *this;
      }
      Iterator operator++(int) {
        Iterator old = *this;
        ++*this;
        return old;
      }
      friend bool operator==(const Iterator& x, const Iterator& y) {
        return x.a_ == y.a_ && x.b_ == y.b_;
      }

     private:
      bool TakesBase() const {
        return b_ == b_end_ || (a_ != a_end_ && *a_ < *b_);
      }

      const SeqId* a_ = nullptr;  // base cursor
      const SeqId* a_end_ = nullptr;
      const SeqId* b_ = nullptr;  // recent cursor
      const SeqId* b_end_ = nullptr;
    };

    PostingList() = default;
    explicit PostingList(const EventPostings& p) : p_(p) {}

    Iterator begin() const {
      return Iterator(p_.base, p_.base + p_.base_size, p_.recent,
                      p_.recent + p_.recent_size);
    }
    Iterator end() const {
      const SeqId* a_end = p_.base + p_.base_size;
      const SeqId* b_end = p_.recent + p_.recent_size;
      return Iterator(a_end, a_end, b_end, b_end);
    }
    size_t size() const {
      return static_cast<size_t>(p_.base_size) + p_.recent_size;
    }
    bool empty() const { return p_.base_size == 0 && p_.recent_size == 0; }

   private:
    EventPostings p_;
  };

  /// Database-wide occurrence count of each event, indexed by event id.
  /// Dense and flat, so root enumeration reads it without touching the
  /// postings; an incremental index shares one array across the snapshots
  /// of epochs that changed no count.
  using EventTotals = std::vector<uint64_t>;

  /// Builds per-sequence CSR blocks by counting, with no sort of positions:
  /// one pass counts each event's occurrences in a dense per-event table,
  /// the distinct events are sorted (by rank counting when there are few),
  /// and a second pass scatters every position into its list, which comes
  /// out ascending. Freeze (the batch constructor and the bulk load) and
  /// the incremental index's Snapshot() both build through it (DESIGN.md
  /// §9). Reusable across blocks; it allocates only while its tables grow.
  class SeqBlockBuilder {
   public:
    /// The block of a sequence whose first events are frozen in `base`
    /// (null when none) and whose remaining events are `tail`, in position
    /// order. Each list holds `base`'s positions, then the tail's. The
    /// block must not be empty. It is allocated in `arena` and takes
    /// SeqBlock::Footprint(distinct events, length) bytes of it.
    const SeqBlock* Build(const SeqBlock* base, std::span<const EventId> tail,
                          Arena& arena);

   private:
    // By event: the occurrence count, then the write cursor of the event's
    // list. All zero between builds.
    std::vector<uint32_t> slot_;
    // Distinct events of the block being built, and sort scratch.
    std::vector<EventId> events_;
    std::vector<EventId> sorted_;
  };

  /// A whole corpus frozen into one exactly sized arena: what the batch
  /// constructor builds, and what serve/IncrementalInvertedIndex adopts
  /// for a bulk load (DESIGN.md §9).
  struct FrozenCorpus {
    /// Indexed by sequence; null for an empty sequence.
    std::vector<const SeqBlock*> blocks;
    /// Indexed by event, over the alphabet; every array is a base, none a
    /// recent one.
    std::vector<EventPostings> postings;
    /// Holds every block and postings array; null when no sequence holds
    /// an event.
    std::shared_ptr<Arena> arena;
    EventTotals totals;
    /// Events with a positive total, ascending.
    std::vector<EventId> present_events;
  };

  /// Freezes `sequences`, whose largest event id plus one (0 when they
  /// hold no event) is `alphabet_size`: a sizing pass counts each block's
  /// footprint and each event's postings, one arena of exactly their bytes
  /// is allocated, then every block is built (SeqBlockBuilder) and the
  /// postings are filled in place, in sequence order. O(total length +
  /// alphabet).
  static FrozenCorpus Freeze(std::span<const Sequence> sequences,
                             EventId alphabet_size);

  /// An empty index (no sequences, empty alphabet) — the value a snapshot
  /// handle holds before its first assignment.
  InvertedIndex() = default;

  /// The batch build: Freeze(db.sequences(), db.AlphabetSize()), adopted
  /// as the view.
  explicit InvertedIndex(const SequenceDatabase& db);

  /// Snapshot-assembly constructor (serve/incremental_index.h): adopts
  /// already-frozen blocks and postings, which live in `arenas`. Block
  /// entries may be null only for an empty sequence; `totals` must not be
  /// null, and `present_events` must list the events with a positive total,
  /// ascending. Content must satisfy the same invariants the batch
  /// constructor establishes (events and positions ascending, postings
  /// ascending by sequence) — the differential suite in tests/serve pins
  /// snapshot output to the batch build bit for bit.
  InvertedIndex(std::vector<const SeqBlock*> seq_blocks,
                std::vector<EventPostings> postings,
                std::vector<std::shared_ptr<const Arena>> arenas,
                std::shared_ptr<const EventTotals> totals,
                std::vector<EventId> present_events, EventId alphabet_size)
      : seq_blocks_(std::move(seq_blocks)),
        postings_(std::move(postings)),
        arenas_(std::move(arenas)),
        totals_owner_(std::move(totals)),
        totals_(*totals_owner_),
        present_events_(std::move(present_events)),
        alphabet_size_(alphabet_size) {}

  /// Sorted positions of `e` in sequence `i` (possibly empty).
  std::span<const Position> Positions(SeqId i, EventId e) const;

  /// Smallest position p >= `from` with S_i[p] == e, or kNoPosition.
  ///
  /// This is the paper's next(S, e, lowest) with the strict bound folded in:
  /// next(S, e, lowest) == NextAtOrAfter(i, e, lowest + 1).
  Position NextAtOrAfter(SeqId i, EventId e, Position from) const;

  /// Cursor over the positions of `e` in sequence `i`, resolving the event
  /// slot once for a whole per-sequence run of next() queries. The index
  /// must outlive the cursor.
  PositionCursor Cursor(SeqId i, EventId e) const {
    return PositionCursor(Positions(i, e));
  }

  /// Number of occurrences of `e` in sequence `i`.
  uint32_t Count(SeqId i, EventId e) const;

  /// Total occurrences of `e` across the database.
  uint64_t TotalCount(EventId e) const {
    return e < totals_.size() ? totals_[e] : 0;
  }

  /// Sequences containing `e`, ascending. Count(seq, e) gives the
  /// occurrences in one of them.
  PostingList Postings(EventId e) const {
    return e < postings_.size() ? PostingList(postings_[e]) : PostingList();
  }

  /// Distinct events occurring in sequence `i`, ascending by event id.
  std::span<const EventId> EventsInSequence(SeqId i) const;

  /// Dense alphabet size the index was built with (max event id + 1).
  EventId alphabet_size() const { return alphabet_size_; }

  size_t num_sequences() const { return seq_blocks_.size(); }

  /// Length of sequence `i`. Every position of a sequence holds exactly one
  /// event, so the length equals the total position count of the sequence's
  /// CSR block — the index answers it without the database.
  Position SequenceLength(SeqId i) const {
    const SeqBlock* block = seq_blocks_[i];
    return block == nullptr ? 0
                            : static_cast<Position>(block->offsets.back());
  }

  /// Events with TotalCount(e) > 0, ascending.
  const std::vector<EventId>& present_events() const { return present_events_; }

  /// Bytes of position-list / postings storage reachable from this index
  /// (block arrays + postings arrays; excludes block headers and the view
  /// tables). Snapshot views that share blocks across epochs each report
  /// the full reachable total.
  size_t MemoryUsage() const;

  /// The block of sequence `i` (null for an empty sequence). Exposed so
  /// serve-side tests can pin that clean blocks stay pointer-shared across
  /// snapshot epochs.
  const SeqBlock* seq_block(SeqId i) const { return seq_blocks_[i]; }

 private:
  // Indexed by sequence / event. A null block stands for an empty
  // sequence, an empty EventPostings for an absent event.
  std::vector<const SeqBlock*> seq_blocks_;
  std::vector<EventPostings> postings_;
  // Every arena a block or postings array above lives in, once each.
  std::vector<std::shared_ptr<const Arena>> arenas_;
  // TotalCount reads the span; the owner keeps its array alive.
  std::shared_ptr<const EventTotals> totals_owner_;
  std::span<const uint64_t> totals_;
  std::vector<EventId> present_events_;
  EventId alphabet_size_ = 0;
};

}  // namespace gsgrow

#endif  // GSGROW_CORE_INVERTED_INDEX_H_
