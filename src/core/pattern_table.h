// PatternTable: the one representation of a mined answer (DESIGN.md §6/§7),
// from the emission sinks through the merge, the result cache and the
// response writers.
//
// A table is a handful of flat arrays, not one heap object per pattern:
//
//  * one event array holding every row's events back to back, and the row
//    ends into it;
//  * the supports, one per row;
//  * an annotation column (Table-I values, core/semantics_sink.h) that
//    exists only once some row carries an annotation block, so answers
//    mined without a semantics selection pay nothing for it.
//
// Appending a row copies its events into the event array: no per-pattern
// allocation, a teardown of a few frees, and a copy (cache hit) of a few
// flat arrays.
//
// Chunks. A sharded run (core/parallel_engine.h) gives each worker its own
// table; the worker marks where each DFS root's rows begin (BeginChunk).
// A root's subtree is emitted in canonical order and the roots ascend, so
// CommitChunks rebuilds the canonical answer by copying the chunks in
// root order — no comparison sort of the rows.

#ifndef GSGROW_CORE_PATTERN_TABLE_H_
#define GSGROW_CORE_PATTERN_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/pattern.h"
#include "core/types.h"

namespace gsgrow {

// ---------------------------------------------------------------------------
// Semantics annotations (Table I; DESIGN.md §7)
// ---------------------------------------------------------------------------

/// The related-work support measures of the paper's Table I that the mining
/// sinks can compute per emitted pattern (core/semantics_sink.h). Enumerator
/// order is the canonical annotation order: annotation blocks list their
/// values ascending by measure, which is what makes serialized output and
/// cross-thread merges byte-identical.
enum class SemanticsMeasure : uint8_t {
  kSequenceCount = 0,   // Agrawal & Srikant '95: sequences containing P
  kFixedWindow = 1,     // Mannila '97 (i): width-w windows containing P
  kMinimalWindow = 2,   // Mannila '97 (ii): minimal windows of P
  kGapOccurrences = 3,  // Zhang '05: landmarks with gaps in [min, max]
  kInteraction = 4,     // El-Ramly '02: endpoint-matched substrings
  kIterative = 5,       // Lo '07: QRE occurrences (MSC/LSC semantics)
};

inline constexpr size_t kNumSemanticsMeasures = 6;

/// Stable snake-case name used by pattern_io, mine_cli and the bench JSON.
constexpr std::string_view SemanticsMeasureName(SemanticsMeasure m) {
  switch (m) {
    case SemanticsMeasure::kSequenceCount: return "sequence_count";
    case SemanticsMeasure::kFixedWindow: return "fixed_window";
    case SemanticsMeasure::kMinimalWindow: return "minimal_window";
    case SemanticsMeasure::kGapOccurrences: return "gap_occurrences";
    case SemanticsMeasure::kInteraction: return "interaction";
    case SemanticsMeasure::kIterative: return "iterative";
  }
  return "unknown";
}

/// Inverse of SemanticsMeasureName; false when `name` is not a measure.
inline bool SemanticsMeasureFromName(std::string_view name,
                                     SemanticsMeasure* out) {
  for (size_t i = 0; i < kNumSemanticsMeasures; ++i) {
    const SemanticsMeasure m = static_cast<SemanticsMeasure>(i);
    if (SemanticsMeasureName(m) == name) {
      *out = m;
      return true;
    }
  }
  return false;
}

/// One computed measure value.
struct SemanticsValue {
  SemanticsMeasure measure = SemanticsMeasure::kSequenceCount;
  uint64_t value = 0;

  friend bool operator==(const SemanticsValue& a,
                         const SemanticsValue& b) = default;
};

/// Looks `measure` up in an annotation block; false when it is absent.
inline bool FindAnnotation(std::span<const SemanticsValue> values,
                           SemanticsMeasure measure, uint64_t* value) {
  for (const SemanticsValue& v : values) {
    if (v.measure == measure) {
      *value = v.value;
      return true;
    }
  }
  return false;
}

/// Appends "name=value name=value" in block order; nothing for an empty
/// block.
inline void AppendAnnotations(std::span<const SemanticsValue> values,
                              std::string* out) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(' ');
    *out += SemanticsMeasureName(values[i].measure);
    out->push_back('=');
    *out += std::to_string(values[i].value);
  }
}

/// The annotation block of one pattern: the selected Table-I measures, in
/// canonical (enumerator) order. Values are database-wide totals and a
/// pure function of (pattern, database, selection) — which is why annotated
/// output merges deterministically across worker threads. The annotator
/// fills one per emission; a PatternTable stores its values in the
/// annotation column.
struct SemanticsAnnotations {
  std::vector<SemanticsValue> values;

  bool empty() const { return values.empty(); }

  /// Looks up `measure`; false when the block does not carry it.
  bool Get(SemanticsMeasure measure, uint64_t* value) const {
    return FindAnnotation(values, measure, value);
  }

  friend bool operator==(const SemanticsAnnotations& a,
                         const SemanticsAnnotations& b) = default;
};

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

/// One row of a PatternTable, viewed in place. Valid until the table is
/// appended to or destroyed.
struct PatternRow {
  std::span<const EventId> events;
  uint64_t support = 0;
  /// The row's annotation block; empty when the row carries none.
  std::span<const SemanticsValue> annotations;

  /// The events as an owning Pattern (allocates; for callers that need
  /// Pattern's operations).
  Pattern pattern() const {
    return Pattern(std::vector<EventId>(events.begin(), events.end()));
  }

  /// The annotation block as a value (allocates).
  SemanticsAnnotations annotation_block() const {
    return SemanticsAnnotations{
        std::vector<SemanticsValue>(annotations.begin(), annotations.end())};
  }

  /// Content equality: the same events, support and annotation block.
  friend bool operator==(const PatternRow& a, const PatternRow& b) {
    return std::ranges::equal(a.events, b.events) && a.support == b.support &&
           std::ranges::equal(a.annotations, b.annotations);
  }
};

/// The rows of a mined answer. A collected answer is in canonical order —
/// lexicographic on the events (a proper prefix first), then ascending
/// support — at any thread count (DESIGN.md §6).
class PatternTable {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PatternRow;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = PatternRow;

    const_iterator() = default;
    const_iterator(const PatternTable* table, size_t row)
        : table_(table), row_(row) {}

    PatternRow operator*() const { return (*table_)[row_]; }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++row_;
      return before;
    }
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) = default;

   private:
    const PatternTable* table_ = nullptr;
    size_t row_ = 0;
  };
  using iterator = const_iterator;

  size_t size() const { return supports_.size(); }
  bool empty() const { return supports_.empty(); }

  PatternRow operator[](size_t row) const {
    PatternRow out;
    out.events = events(row);
    out.support = supports_[row];
    if (!annotation_ends_.empty()) {
      const size_t begin = row == 0 ? 0 : annotation_ends_[row - 1];
      out.annotations = std::span(annotation_values_)
                            .subspan(begin, annotation_ends_[row] - begin);
    }
    return out;
  }

  std::span<const EventId> events(size_t row) const {
    const size_t begin = row == 0 ? 0 : ends_[row - 1];
    return std::span(events_).subspan(begin, ends_[row] - begin);
  }
  uint64_t support(size_t row) const { return supports_[row]; }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  /// True once some row carries an annotation block: the annotation column
  /// exists only then.
  bool annotated() const { return !annotation_ends_.empty(); }

  /// Events stored across all rows.
  size_t total_events() const { return events_.size(); }

  /// Annotation values stored across all rows.
  size_t total_annotations() const { return annotation_values_.size(); }

  /// Appends one row. `annotations` may be empty; the first non-empty block
  /// creates the annotation column.
  void Append(std::span<const EventId> events, uint64_t support,
              std::span<const SemanticsValue> annotations = {});
  void Append(std::span<const EventId> events, uint64_t support,
              const SemanticsAnnotations& annotations) {
    Append(events, support, annotations.values);
  }
  /// Appends a copy of `row`, which must not view this table.
  void Append(const PatternRow& row) {
    Append(row.events, row.support, row.annotations);
  }

  /// Appends rows [begin, end) of `from` (annotations included).
  void AppendRows(const PatternTable& from, size_t begin, size_t end);

  /// Pre-sizes the arrays for `rows` more rows holding `events` more events.
  void Reserve(size_t rows, size_t events);

  /// Marks that the rows appended from now on belong to work unit `unit`
  /// (a DFS root index), until the next mark. Units must be marked in
  /// ascending order.
  void BeginChunk(size_t unit) { chunks_.push_back(Chunk{unit, size()}); }

  /// Row equality: events, supports and annotation blocks. Chunk marks are
  /// bookkeeping of how the rows were produced and do not count.
  friend bool operator==(const PatternTable& a, const PatternTable& b);

 private:
  friend PatternTable CommitChunks(std::vector<PatternTable> shards);

  struct Chunk {
    size_t unit = 0;
    size_t begin = 0;  // first row of the unit
  };

  std::vector<EventId> events_;
  // ends_[i]: one past row i's last event in events_ (row 0 starts at 0).
  std::vector<size_t> ends_;
  std::vector<uint64_t> supports_;
  // The annotation column: empty until a row carries a block, then one end
  // per row into annotation_values_ (rows without a block have an empty
  // range).
  std::vector<SemanticsValue> annotation_values_;
  std::vector<size_t> annotation_ends_;
  std::vector<Chunk> chunks_;
};

/// Commits the chunked tables of one sharded run into a single table in
/// ascending unit order, dropping the chunk marks. Every unit must appear in
/// at most one shard, and a shard holding rows must mark its first row. A
/// single shard is returned as is (its units already ascend). Each chunk is
/// copied once; rows are never compared.
PatternTable CommitChunks(std::vector<PatternTable> shards);

}  // namespace gsgrow

#endif  // GSGROW_CORE_PATTERN_TABLE_H_
