// Result types returned by the miners.

#ifndef GSGROW_CORE_MINING_RESULT_H_
#define GSGROW_CORE_MINING_RESULT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pattern.h"

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

/// The annotation block of a mined pattern: the selected Table-I measures,
/// in canonical (enumerator) order. Values are database-wide totals and a
/// pure function of (pattern, database, selection) — which is why annotated
/// output merges deterministically across worker threads.
struct SemanticsAnnotations {
  std::vector<SemanticsValue> values;

  bool empty() const { return values.empty(); }

  /// Looks up `measure`; false when the block does not carry it.
  bool Get(SemanticsMeasure measure, uint64_t* value) const {
    for (const SemanticsValue& v : values) {
      if (v.measure == measure) {
        *value = v.value;
        return true;
      }
    }
    return false;
  }

  friend bool operator==(const SemanticsAnnotations& a,
                         const SemanticsAnnotations& b) = default;
};

/// "name=value name=value" in canonical order; "" for an empty block.
inline std::string AnnotationsToString(const SemanticsAnnotations& ann) {
  std::string out;
  for (const SemanticsValue& v : ann.values) {
    if (!out.empty()) out.push_back(' ');
    out += SemanticsMeasureName(v.measure);
    out.push_back('=');
    out += std::to_string(v.value);
  }
  return out;
}

/// A mined pattern with its repetitive support and (when mined with a
/// semantics selection) its Table-I annotation block.
struct PatternRecord {
  Pattern pattern;
  uint64_t support = 0;
  SemanticsAnnotations annotations;

  PatternRecord() = default;
  PatternRecord(Pattern pattern, uint64_t support,
                SemanticsAnnotations annotations = {})
      : pattern(std::move(pattern)),
        support(support),
        annotations(std::move(annotations)) {}

  friend bool operator==(const PatternRecord& a,
                         const PatternRecord& b) = default;
};

/// Canonical order of collected mining output: lexicographic on the event
/// sequence, then ascending support. MiningResult::patterns from the
/// all-frequent and closed miners is pinned to this order regardless of
/// thread count or truncation; within one run the support is a function of
/// the pattern, so the tie-break only matters for merged/synthetic lists.
inline bool CanonicalPatternLess(const PatternRecord& a,
                                 const PatternRecord& b) {
  if (a.pattern != b.pattern) return a.pattern < b.pattern;
  return a.support < b.support;
}

/// Counters and outcome flags of one mining run.
struct MiningStats {
  /// Number of patterns emitted into MiningResult::patterns.
  uint64_t patterns_found = 0;
  /// DFS nodes visited (frequent patterns explored, including non-closed
  /// ones in CloGSgrow).
  uint64_t nodes_visited = 0;
  /// Growth steps: one per append growth of a DFS candidate (INSgrow)
  /// plus one per closure_regrow_events step. Append candidates rejected by
  /// the occurrence bound (DESIGN.md §5) are never grown and do not count.
  uint64_t insgrow_calls = 0;
  /// Position-list probes issued through PositionCursor on the mining path:
  /// the next() queries of append growth (AppendOccurrenceBound::Grow, one
  /// cursor per remembered (candidate, sequence) slot; finding the slots
  /// issues none), and in CloGSgrow's closure check the rightmost-landmark-
  /// column probes (PrevBefore), the interval probes deciding each
  /// insert/prepend pair and the LBCheck regrow queries (DESIGN.md §5). Leftmost columns are
  /// read from the prefix sets and issue none. The reference growth path
  /// does not count, nor do append candidates rejected by the occurrence
  /// bound, which issue no query.
  uint64_t next_queries = 0;
  /// CloGSgrow: closure checks performed (one per ClosurePruning::Decide
  /// that scans insert/prepend extensions).
  uint64_t closure_checks = 0;
  /// CloGSgrow: LBCheck column-regrow steps, one per (sequence, pattern
  /// column) regrown for an insert/prepend pair that keeps the support.
  /// Deciding whether a pair keeps the support grows nothing and does not
  /// count.
  uint64_t closure_regrow_events = 0;
  /// Deepest pattern length reached.
  size_t max_depth = 0;
  /// CloGSgrow: DFS subtrees pruned by landmark border checking (Thm. 5).
  uint64_t lb_pruned_subtrees = 0;
  /// CloGSgrow: frequent-but-non-closed patterns suppressed by CCheck.
  uint64_t nonclosed_suppressed = 0;
  /// True if the run stopped early (max_patterns or time budget).
  bool truncated = false;
  /// Why the run stopped early ("max_patterns", "time_budget"); empty when
  /// not truncated.
  std::string truncated_reason;
  /// Wall-clock mining time in seconds (excludes index construction when the
  /// caller passes a prebuilt index).
  double elapsed_seconds = 0.0;
};

/// Fixed-size bridge of the search-space cost counters out of MiningStats,
/// for layers that need a trivially-copyable view (the obs/trace.h request
/// ring buffers these per request; MiningStats itself carries a string and
/// cannot ride in a bounded POD slot). A slow query's trace carries these
/// so its DFS cost is visible next to its latency (DESIGN.md §13).
struct DfsCounters {
  uint64_t nodes_visited = 0;
  uint64_t insgrow_calls = 0;
  uint64_t next_queries = 0;
  uint64_t closure_checks = 0;
  uint64_t closure_regrow_events = 0;
};

inline DfsCounters ExtractDfsCounters(const MiningStats& stats) {
  DfsCounters counters;
  counters.nodes_visited = stats.nodes_visited;
  counters.insgrow_calls = stats.insgrow_calls;
  counters.next_queries = stats.next_queries;
  counters.closure_checks = stats.closure_checks;
  counters.closure_regrow_events = stats.closure_regrow_events;
  return counters;
}

/// Patterns plus run statistics.
struct MiningResult {
  std::vector<PatternRecord> patterns;
  MiningStats stats;
};

}  // namespace gsgrow

#endif  // GSGROW_CORE_MINING_RESULT_H_
