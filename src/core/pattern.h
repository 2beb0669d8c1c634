// Pattern: a (gapped) subsequence to be mined, P = e_1 e_2 .. e_m.

#ifndef GSGROW_CORE_PATTERN_H_
#define GSGROW_CORE_PATTERN_H_

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/event_dictionary.h"
#include "core/types.h"

namespace gsgrow {

/// True iff `needle` is a (not necessarily proper) subsequence of
/// `haystack` (Definition 2.1 applied to event lists).
bool IsSubsequence(std::span<const EventId> needle,
                   std::span<const EventId> haystack);

/// An ordered list of events; value type with cheap comparison so patterns
/// can key maps and be sorted in reports.
class Pattern {
 public:
  Pattern() = default;
  explicit Pattern(std::vector<EventId> events) : events_(std::move(events)) {}
  Pattern(std::initializer_list<EventId> events) : events_(events) {}

  EventId operator[](size_t i) const { return events_[i]; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  const std::vector<EventId>& events() const { return events_; }

  /// Steals the event storage (leaves the pattern empty). Lets hot paths
  /// round-trip a scratch vector through a Pattern without reallocating.
  std::vector<EventId> TakeEvents() && { return std::move(events_); }

  /// P ◦ e (Definition 3.3): this pattern grown with one event.
  Pattern Grow(EventId e) const;

  /// Extension at `gap` (Definition 3.4): inserts e before position `gap`;
  /// gap == 0 prepends, gap == size() appends.
  Pattern InsertAt(size_t gap, EventId e) const;

  /// True iff this pattern is a (not necessarily proper) subsequence of
  /// `other` (Definition 2.1 applied to patterns).
  bool IsSubsequenceOf(const Pattern& other) const;

  /// Space-separated event names, e.g. "A C B".
  std::string ToString(const EventDictionary& dict) const;

  /// Compact display for single-character alphabets, e.g. "ACB".
  std::string ToCompactString(const EventDictionary& dict) const;

  auto begin() const { return events_.begin(); }
  auto end() const { return events_.end(); }

  friend bool operator==(const Pattern& a, const Pattern& b) = default;
  friend auto operator<=>(const Pattern& a, const Pattern& b) = default;

 private:
  std::vector<EventId> events_;
};

}  // namespace gsgrow

#endif  // GSGROW_CORE_PATTERN_H_
