#include "core/inverted_index.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/arena.h"
#include "util/logging.h"

namespace gsgrow {

InvertedIndex::InvertedIndex(const SequenceDatabase& db) {
  alphabet_size_ = db.AlphabetSize();
  seq_blocks_.resize(db.size());
  // One arena backs every block and postings array of this build; the last
  // surviving block releases it.
  auto arena = std::make_shared<Arena>();

  std::vector<std::vector<Posting>> postings_acc(alphabet_size_);
  std::vector<uint64_t> totals(alphabet_size_, 0);
  // Per-sequence CSR scratch, reused across sequences.
  std::vector<std::pair<EventId, Position>> occ;
  std::vector<EventId> events;
  std::vector<uint32_t> offsets;
  std::vector<Position> positions;

  for (SeqId i = 0; i < db.size(); ++i) {
    const Sequence& s = db[i];
    if (s.empty()) continue;
    // Sequences are typically short relative to the alphabet, so collect the
    // events actually present instead of scanning the whole alphabet.
    occ.clear();
    events.clear();
    offsets.clear();
    positions.clear();
    occ.reserve(s.length());
    for (Position p = 0; p < s.length(); ++p) {
      occ.emplace_back(s[p], p);
    }
    std::stable_sort(occ.begin(), occ.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    positions.reserve(occ.size());
    for (size_t k = 0; k < occ.size(); ++k) {
      if (k == 0 || occ[k].first != occ[k - 1].first) {
        events.push_back(occ[k].first);
        offsets.push_back(static_cast<uint32_t>(positions.size()));
      }
      positions.push_back(occ[k].second);
    }
    offsets.push_back(static_cast<uint32_t>(positions.size()));

    for (size_t k = 0; k < events.size(); ++k) {
      const EventId e = events[k];
      const uint32_t count = offsets[k + 1] - offsets[k];
      postings_acc[e].push_back(Posting{i, count});
      totals[e] += count;
    }
    seq_blocks_[i] = BuildSeqBlock(events, offsets, positions, arena);
  }

  postings_.resize(alphabet_size_);
  for (EventId e = 0; e < alphabet_size_; ++e) {
    if (totals[e] == 0) continue;
    postings_[e] = BuildEventPostings(postings_acc[e], totals[e], arena);
    present_events_.push_back(e);
  }
}

std::shared_ptr<const InvertedIndex::SeqBlock> InvertedIndex::BuildSeqBlock(
    std::span<const EventId> events, std::span<const uint32_t> offsets,
    std::span<const Position> positions,
    const std::shared_ptr<Arena>& arena) {
  GSGROW_DCHECK(offsets.size() == events.size() + 1);
  GSGROW_DCHECK(!events.empty());
  auto block = std::make_shared<SeqBlock>();
  Arena& a = *arena;
  block->events = a.CopyArray(events);
  block->offsets = a.CopyArray(offsets);
  block->positions = a.CopyArray(positions);
  block->owner = arena;
  return block;
}

std::shared_ptr<const InvertedIndex::EventPostings>
InvertedIndex::BuildEventPostings(std::span<const Posting> postings,
                                  uint64_t total,
                                  const std::shared_ptr<Arena>& arena) {
  auto ep = std::make_shared<EventPostings>();
  ep->postings = arena->CopyArray(postings);
  ep->total = total;
  ep->owner = arena;
  return ep;
}

int InvertedIndex::FindEventSlot(const SeqBlock& block, EventId e) {
  auto it = std::lower_bound(block.events.begin(), block.events.end(), e);
  if (it == block.events.end() || *it != e) return -1;
  return static_cast<int>(it - block.events.begin());
}

std::span<const Position> InvertedIndex::Positions(SeqId i,
                                                  EventId e) const {
  GSGROW_DCHECK(i < seq_blocks_.size());
  const SeqBlock* block = seq_blocks_[i].get();
  if (block == nullptr) return {};
  int slot = FindEventSlot(*block, e);
  if (slot < 0) return {};
  return block->Slot(static_cast<size_t>(slot));
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

uint64_t InvertedIndex::TotalCount(EventId e) const {
  if (e >= postings_.size() || postings_[e] == nullptr) return 0;
  return postings_[e]->total;
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
