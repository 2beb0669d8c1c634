#include "baselines/sequential_common.h"

#include <algorithm>
#include <map>

namespace gsgrow {

bool SequenceContains(const Sequence& sequence, const Pattern& pattern) {
  size_t j = 0;
  for (Position p = 0; p < sequence.length() && j < pattern.size(); ++p) {
    if (sequence[p] == pattern[j]) ++j;
  }
  return j == pattern.size();
}

uint64_t SequenceCountSupport(const SequenceDatabase& db,
                              const Pattern& pattern) {
  uint64_t count = 0;
  for (const Sequence& s : db.sequences()) {
    count += SequenceContains(s, pattern);
  }
  return count;
}

std::vector<Position> FirstInstance(const Sequence& sequence,
                                    const Pattern& pattern) {
  std::vector<Position> landmark;
  landmark.reserve(pattern.size());
  size_t j = 0;
  for (Position p = 0; p < sequence.length() && j < pattern.size(); ++p) {
    if (sequence[p] == pattern[j]) {
      landmark.push_back(p);
      ++j;
    }
  }
  if (j != pattern.size()) return {};
  return landmark;
}

std::vector<Position> LastInstance(const Sequence& sequence,
                                   const Pattern& pattern) {
  if (pattern.empty()) return {};
  std::vector<Position> landmark(pattern.size());
  size_t j = pattern.size();
  for (Position p = static_cast<Position>(sequence.length()); p-- > 0;) {
    if (j > 0 && sequence[p] == pattern[j - 1]) {
      landmark[j - 1] = p;
      --j;
      if (j == 0) return landmark;
    }
  }
  return {};
}

PatternTable FilterClosedSequential(const PatternTable& records) {
  // Group row indexes by support: a closure witness must have identical
  // support.
  std::map<uint64_t, std::vector<size_t>> by_support;
  for (size_t i = 0; i < records.size(); ++i) {
    by_support[records.support(i)].push_back(i);
  }
  std::vector<size_t> closed;
  for (const auto& [support, group] : by_support) {
    for (const size_t p : group) {
      const std::span<const EventId> events = records.events(p);
      bool is_closed = true;
      for (const size_t q : group) {
        if (records.events(q).size() <= events.size()) continue;
        if (IsSubsequence(events, records.events(q))) {
          is_closed = false;
          break;
        }
      }
      if (is_closed) closed.push_back(p);
    }
  }
  std::sort(closed.begin(), closed.end(), [&](size_t a, size_t b) {
    const std::span<const EventId> ea = records.events(a);
    const std::span<const EventId> eb = records.events(b);
    if (ea.size() != eb.size()) return ea.size() < eb.size();
    return std::lexicographical_compare(ea.begin(), ea.end(), eb.begin(),
                                        eb.end());
  });
  PatternTable out;
  for (const size_t row : closed) out.AppendRows(records, row, row + 1);
  return out;
}

}  // namespace gsgrow
