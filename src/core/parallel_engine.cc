#include "core/parallel_engine.h"

#include <algorithm>

namespace gsgrow {

size_t ResolveNumThreads(size_t requested) {
  if (requested != 0) return std::min(requested, kMaxWorkers);
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw, 1, kMaxWorkers);
}

void AccumulateStats(const MiningStats& worker, MiningStats* total) {
  total->patterns_found += worker.patterns_found;
  total->nodes_visited += worker.nodes_visited;
  total->insgrow_calls += worker.insgrow_calls;
  total->next_queries += worker.next_queries;
  total->closure_checks += worker.closure_checks;
  total->closure_regrow_events += worker.closure_regrow_events;
  total->max_depth = std::max(total->max_depth, worker.max_depth);
  total->lb_pruned_subtrees += worker.lb_pruned_subtrees;
  total->nonclosed_suppressed += worker.nonclosed_suppressed;
}

PatternTable MergeTopKPatterns(std::vector<PatternTable> shards, size_t k) {
  // One shard is already best-first (TopKSink::Take) and K-bounded.
  if (shards.size() == 1) return std::move(shards[0]);
  std::vector<PatternRow> rows;
  for (const PatternTable& shard : shards) {
    rows.insert(rows.end(), shard.begin(), shard.end());
  }
  const size_t kept = std::min(k, rows.size());
  std::partial_sort(rows.begin(), rows.begin() + kept, rows.end(),
                    TopKSink::Better);
  PatternTable merged;
  for (size_t i = 0; i < kept; ++i) merged.Append(rows[i]);
  return merged;
}

}  // namespace gsgrow
