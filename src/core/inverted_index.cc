#include "core/inverted_index.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/arena.h"
#include "util/logging.h"

namespace gsgrow {

namespace {

// Places a block header over already-filled arrays in `arena`.
const InvertedIndex::SeqBlock* PlaceBlock(std::span<const EventId> events,
                                          std::span<const uint32_t> offsets,
                                          std::span<const Position> positions,
                                          Arena& arena) {
  const InvertedIndex::SeqBlock block{events, offsets, positions};
  return arena.CopyArray(std::span(&block, 1)).data();
}

// Sorts `events`, whose values are distinct. A short list (a typical
// sequence holds a few dozen distinct events) is placed by rank counting,
// which is branch-free and vectorizes; a comparison sort on the same input
// spends most of its time on mispredicted branches. Rank counting is
// quadratic, so longer lists (gazelle-like sessions hold up to 138
// distinct pages) take std::sort.
void SortDistinct(std::vector<EventId>* events, std::vector<EventId>* scratch) {
  constexpr size_t kMaxRankSort = 64;
  const size_t n = events->size();
  if (n > kMaxRankSort) {
    std::sort(events->begin(), events->end());
    return;
  }
  scratch->resize(n);
  const EventId* in = events->data();
  for (size_t i = 0; i < n; ++i) {
    uint32_t rank = 0;
    for (size_t j = 0; j < n; ++j) rank += in[j] < in[i] ? 1 : 0;
    (*scratch)[rank] = in[i];
  }
  events->swap(*scratch);
}

}  // namespace

InvertedIndex::InvertedIndex(const SequenceDatabase& db) {
  alphabet_size_ = db.AlphabetSize();
  FrozenCorpus corpus = Freeze(db.sequences(), alphabet_size_);
  seq_blocks_ = std::move(corpus.blocks);
  postings_ = std::move(corpus.postings);
  if (corpus.arena != nullptr) arenas_.push_back(std::move(corpus.arena));
  totals_owner_ =
      std::make_shared<const EventTotals>(std::move(corpus.totals));
  totals_ = *totals_owner_;
  present_events_ = std::move(corpus.present_events);
}

InvertedIndex::FrozenCorpus InvertedIndex::Freeze(
    std::span<const Sequence> sequences, EventId alphabet_size) {
  FrozenCorpus corpus;
  corpus.blocks.resize(sequences.size());
  corpus.postings.resize(alphabet_size);
  corpus.totals.assign(alphabet_size, 0);
  std::vector<EventPostings>& postings = corpus.postings;
  EventTotals& totals = corpus.totals;

  // Sizing pass: each sequence's distinct events (its block's footprint)
  // and each event's postings length, so one arena of exactly the bytes
  // below backs the whole corpus.
  std::vector<SeqId> last_seen(alphabet_size, static_cast<SeqId>(-1));
  size_t bytes = 0;
  for (SeqId i = 0; i < sequences.size(); ++i) {
    const Sequence& s = sequences[i];
    if (s.empty()) continue;
    size_t distinct = 0;
    for (const EventId e : s) {
      GSGROW_DCHECK(e < alphabet_size);
      ++totals[e];
      if (last_seen[e] != i) {
        last_seen[e] = i;
        ++distinct;
        ++postings[e].base_size;
      }
    }
    bytes += SeqBlock::Footprint(distinct, s.length());
  }
  for (EventId e = 0; e < alphabet_size; ++e) {
    bytes += Arena::ArrayFootprint<SeqId>(postings[e].base_size);
  }
  if (bytes == 0) return corpus;
  corpus.arena = std::make_shared<Arena>(bytes);
  Arena& arena = *corpus.arena;

  // Each postings array is laid out at its final length and filled in
  // sequence order through its `fill` cursor.
  std::vector<SeqId*> fill(alphabet_size, nullptr);
  for (EventId e = 0; e < alphabet_size; ++e) {
    if (totals[e] == 0) continue;
    fill[e] = arena.AllocateArray<SeqId>(postings[e].base_size).data();
    postings[e].base = fill[e];
    corpus.present_events.push_back(e);
  }
  SeqBlockBuilder builder;
  for (SeqId i = 0; i < sequences.size(); ++i) {
    const Sequence& s = sequences[i];
    if (s.empty()) continue;
    corpus.blocks[i] = builder.Build(nullptr, s.events(), arena);
    for (const EventId e : corpus.blocks[i]->events) *fill[e]++ = i;
  }
  GSGROW_DCHECK(arena.bytes_used() == arena.bytes_reserved());
  return corpus;
}

size_t InvertedIndex::SeqBlock::Footprint(size_t num_events, size_t length) {
  return Arena::Footprint(sizeof(SeqBlock)) +
         Arena::ArrayFootprint<EventId>(num_events) +
         Arena::ArrayFootprint<uint32_t>(num_events + 1) +
         Arena::ArrayFootprint<Position>(length);
}

size_t InvertedIndex::SeqBlock::Footprint() const {
  return Footprint(events.size(), positions.size());
}

const InvertedIndex::SeqBlock* InvertedIndex::SeqBlock::CopyTo(
    Arena& arena) const {
  return PlaceBlock(arena.CopyArray(events), arena.CopyArray(offsets),
                    arena.CopyArray(positions), arena);
}

const InvertedIndex::SeqBlock* InvertedIndex::SeqBlockBuilder::Build(
    const SeqBlock* base, std::span<const EventId> tail, Arena& a) {
  // Count: base lists first, then the tail.
  events_.clear();
  Position length = 0;
  if (base != nullptr) {
    if (base->events.back() >= slot_.size()) {
      slot_.resize(static_cast<size_t>(base->events.back()) + 1, 0);
    }
    for (size_t k = 0; k < base->num_events(); ++k) {
      slot_[base->events[k]] = base->offsets[k + 1] - base->offsets[k];
      events_.push_back(base->events[k]);
    }
    length = base->offsets.back();
  }
  const Position tail_start = length;
  for (const EventId e : tail) {
    if (e >= slot_.size()) slot_.resize(static_cast<size_t>(e) + 1, 0);
    if (slot_[e]++ == 0) events_.push_back(e);
  }
  length += static_cast<Position>(tail.size());
  GSGROW_DCHECK(!events_.empty());
  SortDistinct(&events_, &sorted_);

  // Lay out the lists; each event's count becomes its list's write cursor.
  const std::span<EventId> events = a.AllocateArray<EventId>(events_.size());
  const std::span<uint32_t> offsets =
      a.AllocateArray<uint32_t>(events_.size() + 1);
  const std::span<Position> positions = a.AllocateArray<Position>(length);
  uint32_t at = 0;
  for (size_t k = 0; k < events_.size(); ++k) {
    const EventId e = events_[k];
    events[k] = e;
    offsets[k] = at;
    at += std::exchange(slot_[e], at);
  }
  offsets[events_.size()] = at;

  // Fill: the base's positions precede the tail's, so lists stay ascending.
  if (base != nullptr) {
    for (size_t k = 0; k < base->num_events(); ++k) {
      const std::span<const Position> list = base->Slot(k);
      uint32_t& cursor = slot_[base->events[k]];
      std::copy(list.begin(), list.end(), positions.begin() + cursor);
      cursor += static_cast<uint32_t>(list.size());
    }
  }
  Position p = tail_start;
  for (const EventId e : tail) positions[slot_[e]++] = p++;
  for (const EventId e : events_) slot_[e] = 0;

  return PlaceBlock(events, offsets, positions, a);
}

std::span<const Position> InvertedIndex::Positions(SeqId i,
                                                  EventId e) const {
  GSGROW_DCHECK(i < seq_blocks_.size());
  const SeqBlock* block = seq_blocks_[i];
  if (block == nullptr) return {};
  // Branch-free past the null check: an absent event selects an empty
  // list at its neighbour's offset.
  const size_t k = block->SeekSlot(e);
  const uint32_t begin = block->offsets[k];
  const uint32_t end = block->events[k] == e ? block->offsets[k + 1] : begin;
  return block->positions.subspan(begin, end - begin);
}

Position InvertedIndex::NextAtOrAfter(SeqId i, EventId e,
                                      Position from) const {
  const std::span<const Position> pos = Positions(i, e);
  auto it = std::lower_bound(pos.begin(), pos.end(), from);
  return it == pos.end() ? kNoPosition : *it;
}

uint32_t InvertedIndex::Count(SeqId i, EventId e) const {
  return static_cast<uint32_t>(Positions(i, e).size());
}

std::span<const EventId> InvertedIndex::EventsInSequence(SeqId i) const {
  GSGROW_DCHECK(i < seq_blocks_.size());
  const SeqBlock* block = seq_blocks_[i];
  if (block == nullptr) return {};
  return block->events;
}

size_t InvertedIndex::MemoryUsage() const {
  size_t bytes = 0;
  for (const SeqBlock* block : seq_blocks_) {
    if (block != nullptr) bytes += block->StorageBytes();
  }
  for (const EventPostings& p : postings_) {
    bytes += (static_cast<size_t>(p.base_size) + p.recent_size) *
             sizeof(SeqId);
  }
  return bytes;
}

}  // namespace gsgrow
