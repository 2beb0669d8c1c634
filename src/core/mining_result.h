// Result types returned by the miners.

#ifndef GSGROW_CORE_MINING_RESULT_H_
#define GSGROW_CORE_MINING_RESULT_H_

#include <cstdint>
#include <string>

#include "core/pattern_table.h"

namespace gsgrow {

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
  /// CloGSgrow: closure checks performed, one per node whose insert/prepend
  /// extensions are scanned: every node with LBCheck on (the scan is the
  /// subtree verdict), and without it every node that no equal-support
  /// append already makes non-closed.
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
  PatternTable patterns;
  MiningStats stats;
};

}  // namespace gsgrow

#endif  // GSGROW_CORE_MINING_RESULT_H_
