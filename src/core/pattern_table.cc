#include "core/pattern_table.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace gsgrow {

void PatternTable::Append(std::span<const EventId> events, uint64_t support,
                          std::span<const SemanticsValue> annotations) {
  if (!annotations.empty() || annotated()) {
    // The first annotated row creates the column; earlier rows carry none.
    annotation_ends_.resize(size(), annotation_values_.size());
    annotation_values_.insert(annotation_values_.end(), annotations.begin(),
                              annotations.end());
    annotation_ends_.push_back(annotation_values_.size());
  }
  events_.insert(events_.end(), events.begin(), events.end());
  ends_.push_back(events_.size());
  supports_.push_back(support);
}

void PatternTable::AppendRows(const PatternTable& from, size_t begin,
                              size_t end) {
  GSGROW_DCHECK(begin <= end && end <= from.size());
  if (begin == end) return;
  const size_t event_begin = begin == 0 ? 0 : from.ends_[begin - 1];
  const size_t event_base = events_.size();
  events_.insert(events_.end(), from.events_.begin() + event_begin,
                 from.events_.begin() + from.ends_[end - 1]);
  for (size_t row = begin; row < end; ++row) {
    ends_.push_back(from.ends_[row] - event_begin + event_base);
  }
  supports_.insert(supports_.end(), from.supports_.begin() + begin,
                   from.supports_.begin() + end);
  if (from.annotated()) {
    if (annotation_ends_.empty()) {
      annotation_ends_.assign(size() - (end - begin), 0);
    }
    const size_t value_begin =
        begin == 0 ? 0 : from.annotation_ends_[begin - 1];
    const size_t value_base = annotation_values_.size();
    annotation_values_.insert(
        annotation_values_.end(),
        from.annotation_values_.begin() + value_begin,
        from.annotation_values_.begin() + from.annotation_ends_[end - 1]);
    for (size_t row = begin; row < end; ++row) {
      annotation_ends_.push_back(from.annotation_ends_[row] - value_begin +
                                 value_base);
    }
  } else if (annotated()) {
    annotation_ends_.resize(size(), annotation_values_.size());
  }
}

void PatternTable::Reserve(size_t rows, size_t events) {
  events_.reserve(events_.size() + events);
  ends_.reserve(ends_.size() + rows);
  supports_.reserve(supports_.size() + rows);
}

bool operator==(const PatternTable& a, const PatternTable& b) {
  return a.events_ == b.events_ && a.ends_ == b.ends_ &&
         a.supports_ == b.supports_ &&
         a.annotation_values_ == b.annotation_values_ &&
         a.annotation_ends_ == b.annotation_ends_;
}

PatternTable CommitChunks(std::vector<PatternTable> shards) {
  if (shards.empty()) return {};
  if (shards.size() == 1) {
    PatternTable out = std::move(shards[0]);
    out.chunks_.clear();
    return out;
  }
  // Place every chunk at its unit's slot; walking the slots in order is
  // then the canonical answer. Units are DFS root indexes, so the slot
  // array is as long as the root list.
  constexpr size_t kNoShard = std::numeric_limits<size_t>::max();
  struct Placed {
    size_t shard = kNoShard;
    size_t begin = 0;
    size_t end = 0;
  };
  std::vector<Placed> units;
  size_t rows = 0;
  size_t events = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    const PatternTable& shard = shards[s];
    rows += shard.size();
    events += shard.events_.size();
    GSGROW_CHECK_MSG(shard.empty() || (!shard.chunks_.empty() &&
                                       shard.chunks_.front().begin == 0),
                     "a chunked shard must mark its first row");
    for (size_t j = 0; j < shard.chunks_.size(); ++j) {
      const PatternTable::Chunk& chunk = shard.chunks_[j];
      const size_t end = j + 1 < shard.chunks_.size()
                             ? shard.chunks_[j + 1].begin
                             : shard.size();
      if (end == chunk.begin) continue;
      if (units.size() <= chunk.unit) units.resize(chunk.unit + 1);
      GSGROW_CHECK_MSG(units[chunk.unit].shard == kNoShard,
                       "a work unit committed by two shards");
      units[chunk.unit] = Placed{s, chunk.begin, end};
    }
  }
  PatternTable out;
  out.Reserve(rows, events);
  for (const Placed& unit : units) {
    if (unit.shard == kNoShard) continue;
    out.AppendRows(shards[unit.shard], unit.begin, unit.end);
  }
  return out;
}

}  // namespace gsgrow
