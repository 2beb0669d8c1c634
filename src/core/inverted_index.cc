#include "core/inverted_index.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/arena.h"
#include "util/logging.h"

namespace gsgrow {

namespace {

// Arena-resident copy of `value`; the pointer shares ownership of `arena`.
template <typename T>
std::shared_ptr<const T> Publish(const T& value,
                                 const std::shared_ptr<Arena>& arena) {
  return std::shared_ptr<const T>(
      arena, arena->CopyArray(std::span<const T>(&value, 1)).data());
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
  seq_blocks_.resize(db.size());
  // One arena backs every block and postings array of this build; the last
  // surviving block releases it.
  auto arena = std::make_shared<Arena>();

  std::vector<std::vector<Posting>> postings_acc(alphabet_size_);
  auto totals_acc = std::make_shared<EventTotals>(alphabet_size_, 0);
  EventTotals& totals = *totals_acc;
  SeqBlockBuilder builder;
  for (SeqId i = 0; i < db.size(); ++i) {
    const Sequence& s = db[i];
    if (s.empty()) continue;
    seq_blocks_[i] = builder.Build(nullptr, s.events(), arena);
    const SeqBlock& block = *seq_blocks_[i];
    for (size_t k = 0; k < block.num_events(); ++k) {
      const EventId e = block.events[k];
      const uint32_t count = block.offsets[k + 1] - block.offsets[k];
      postings_acc[e].push_back(Posting{i, count});
      totals[e] += count;
    }
  }

  postings_.resize(alphabet_size_);
  for (EventId e = 0; e < alphabet_size_; ++e) {
    if (totals[e] == 0) continue;
    postings_[e] = BuildEventPostings(postings_acc[e], arena);
    present_events_.push_back(e);
  }
  totals_ = totals;
  totals_owner_ = std::move(totals_acc);
}

std::shared_ptr<const InvertedIndex::SeqBlock>
InvertedIndex::SeqBlockBuilder::Build(const SeqBlock* base,
                                      std::span<const EventId> tail,
                                      const std::shared_ptr<Arena>& arena) {
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
  Arena& a = *arena;
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

  return Publish(SeqBlock{events, offsets, positions}, arena);
}

std::shared_ptr<const InvertedIndex::EventPostings>
InvertedIndex::BuildEventPostings(std::span<const Posting> postings,
                                  const std::shared_ptr<Arena>& arena) {
  return Publish(EventPostings{arena->CopyArray(postings)}, arena);
}

std::span<const Position> InvertedIndex::Positions(SeqId i,
                                                  EventId e) const {
  GSGROW_DCHECK(i < seq_blocks_.size());
  const SeqBlock* block = seq_blocks_[i].get();
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

std::span<const InvertedIndex::Posting> InvertedIndex::Postings(
    EventId e) const {
  if (e >= postings_.size() || postings_[e] == nullptr) return {};
  return postings_[e]->postings;
}

std::span<const EventId> InvertedIndex::EventsInSequence(SeqId i) const {
  GSGROW_DCHECK(i < seq_blocks_.size());
  const SeqBlock* block = seq_blocks_[i].get();
  if (block == nullptr) return {};
  return block->events;
}

size_t InvertedIndex::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& block : seq_blocks_) {
    if (block != nullptr) bytes += block->StorageBytes();
  }
  for (const auto& ep : postings_) {
    if (ep != nullptr) bytes += ep->postings.size_bytes();
  }
  return bytes;
}

}  // namespace gsgrow
