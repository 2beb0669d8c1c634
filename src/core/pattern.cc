#include "core/pattern.h"

#include "util/logging.h"

namespace gsgrow {

Pattern Pattern::Grow(EventId e) const {
  std::vector<EventId> grown = events_;
  grown.push_back(e);
  return Pattern(std::move(grown));
}

Pattern Pattern::InsertAt(size_t gap, EventId e) const {
  GSGROW_DCHECK(gap <= events_.size());
  std::vector<EventId> grown;
  grown.reserve(events_.size() + 1);
  grown.insert(grown.end(), events_.begin(), events_.begin() + gap);
  grown.push_back(e);
  grown.insert(grown.end(), events_.begin() + gap, events_.end());
  return Pattern(std::move(grown));
}

bool IsSubsequence(std::span<const EventId> needle,
                   std::span<const EventId> haystack) {
  size_t i = 0;
  for (size_t j = 0; j < haystack.size() && i < needle.size(); ++j) {
    if (needle[i] == haystack[j]) ++i;
  }
  return i == needle.size();
}

bool Pattern::IsSubsequenceOf(const Pattern& other) const {
  return IsSubsequence(events_, other.events_);
}

std::string Pattern::ToString(const EventDictionary& dict) const {
  std::string out;
  for (size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) out.push_back(' ');
    out += dict.Name(events_[i]);
  }
  return out;
}

std::string Pattern::ToCompactString(const EventDictionary& dict) const {
  std::string out;
  for (EventId e : events_) out += dict.Name(e);
  return out;
}

}  // namespace gsgrow
