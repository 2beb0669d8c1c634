// SequenceDatabase: the input SeqDB = {S_1 .. S_N} plus its event dictionary.

#ifndef GSGROW_CORE_SEQUENCE_DATABASE_H_
#define GSGROW_CORE_SEQUENCE_DATABASE_H_

#include <string>
#include <vector>

#include "core/event_dictionary.h"
#include "core/sequence.h"
#include "core/types.h"

namespace gsgrow {

/// Shape statistics of a database (used by benches and dataset reports).
struct DatabaseStats {
  size_t num_sequences = 0;
  size_t num_distinct_events = 0;
  size_t total_length = 0;
  size_t max_length = 0;
  size_t min_length = 0;
  double avg_length = 0.0;
};

/// A set of event sequences with an optional name dictionary.
///
/// Build with SequenceDatabaseBuilder, or construct directly from raw
/// event-id sequences (tests and generators do this).
class SequenceDatabase {
 public:
  SequenceDatabase() = default;

  /// Constructs from raw id sequences; a synthetic dictionary is used for
  /// display ("e<id>").
  explicit SequenceDatabase(std::vector<Sequence> sequences)
      : sequences_(std::move(sequences)) {}

  SequenceDatabase(std::vector<Sequence> sequences, EventDictionary dictionary)
      : sequences_(std::move(sequences)), dictionary_(std::move(dictionary)) {}

  const Sequence& operator[](SeqId i) const {
    GSGROW_DCHECK(i < sequences_.size());
    return sequences_[i];
  }

  size_t size() const { return sequences_.size(); }
  bool empty() const { return sequences_.empty(); }

  const std::vector<Sequence>& sequences() const { return sequences_; }
  const EventDictionary& dictionary() const { return dictionary_; }
  EventDictionary* mutable_dictionary() { return &dictionary_; }

  /// Largest event id present plus one (dense alphabet size). Computed in
  /// O(total length); callers cache it.
  EventId AlphabetSize() const;

  /// Shape statistics.
  DatabaseStats Stats() const;

 private:
  std::vector<Sequence> sequences_;
  EventDictionary dictionary_;
};

/// Incremental builder mapping string event names to dense ids.
class SequenceDatabaseBuilder {
 public:
  /// Appends a sequence given as event names; names are interned.
  void AddSequence(const std::vector<std::string>& event_names);

  /// Appends a sequence of raw ids (caller manages the alphabet).
  void AddSequenceIds(std::vector<EventId> ids);

  /// Number of sequences added so far.
  size_t size() const { return sequences_.size(); }

  /// Finalizes the database; the builder is left empty.
  SequenceDatabase Build();

 private:
  std::vector<Sequence> sequences_;
  EventDictionary dictionary_;
};

/// Convenience for tests and examples: builds a database from sequences
/// written as strings of single-character events, e.g. {"AABCDABB", "ABCD"}.
/// 'A' interns to id 0, 'B' to 1, ... in first-seen order.
SequenceDatabase MakeDatabaseFromStrings(const std::vector<std::string>& rows);

}  // namespace gsgrow

#endif  // GSGROW_CORE_SEQUENCE_DATABASE_H_
