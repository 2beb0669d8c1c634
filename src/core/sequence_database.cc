#include "core/sequence_database.h"

#include <algorithm>
#include <unordered_set>

namespace gsgrow {

EventId SequenceDatabase::AlphabetSize() const {
  // One max over every event, with no branch in the inner loop, so it
  // vectorizes.
  EventId max_id = 0;
  bool any = false;
  for (const Sequence& s : sequences_) {
    any = any || !s.empty();
    for (const EventId e : s) max_id = std::max(max_id, e);
  }
  return any ? max_id + 1 : 0;
}

DatabaseStats SequenceDatabase::Stats() const {
  DatabaseStats st;
  st.num_sequences = sequences_.size();
  std::unordered_set<EventId> distinct;
  st.min_length = sequences_.empty() ? 0 : sequences_.front().length();
  for (const Sequence& s : sequences_) {
    st.total_length += s.length();
    st.max_length = std::max(st.max_length, s.length());
    st.min_length = std::min(st.min_length, s.length());
    for (EventId e : s) distinct.insert(e);
  }
  st.num_distinct_events = distinct.size();
  st.avg_length = st.num_sequences == 0
                      ? 0.0
                      : static_cast<double>(st.total_length) /
                            static_cast<double>(st.num_sequences);
  return st;
}

void SequenceDatabaseBuilder::AddSequence(
    const std::vector<std::string>& event_names) {
  std::vector<EventId> ids;
  ids.reserve(event_names.size());
  for (const std::string& name : event_names) {
    ids.push_back(dictionary_.Intern(name));
  }
  sequences_.emplace_back(std::move(ids));
}

void SequenceDatabaseBuilder::AddSequenceIds(std::vector<EventId> ids) {
  sequences_.emplace_back(std::move(ids));
}

SequenceDatabase SequenceDatabaseBuilder::Build() {
  SequenceDatabase db(std::move(sequences_), std::move(dictionary_));
  sequences_.clear();
  dictionary_ = EventDictionary();
  return db;
}

SequenceDatabase MakeDatabaseFromStrings(
    const std::vector<std::string>& rows) {
  SequenceDatabaseBuilder builder;
  for (const std::string& row : rows) {
    std::vector<std::string> names;
    names.reserve(row.size());
    for (char c : row) names.emplace_back(1, c);
    builder.AddSequence(names);
  }
  return builder.Build();
}

}  // namespace gsgrow
