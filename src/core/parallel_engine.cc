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

namespace {

std::vector<PatternRecord> Concatenate(
    std::vector<std::vector<PatternRecord>> shards) {
  size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  std::vector<PatternRecord> merged;
  merged.reserve(total);
  for (auto& shard : shards) {
    std::move(shard.begin(), shard.end(), std::back_inserter(merged));
  }
  return merged;
}

}  // namespace

std::vector<PatternRecord> MergeCollectedPatterns(
    std::vector<std::vector<PatternRecord>> shards) {
  // One shard — the default single-threaded path — is already in canonical
  // order (CollectSink::Take); don't pay a second sort for it.
  if (shards.size() == 1) return std::move(shards[0]);
  std::vector<PatternRecord> merged = Concatenate(std::move(shards));
  std::sort(merged.begin(), merged.end(), CanonicalPatternLess);
  return merged;
}

std::vector<PatternRecord> MergeTopKPatterns(
    std::vector<std::vector<PatternRecord>> shards, size_t k) {
  // One shard is already best-first (TopKSink::Take) and K-bounded.
  if (shards.size() == 1) return std::move(shards[0]);
  std::vector<PatternRecord> merged = Concatenate(std::move(shards));
  std::sort(merged.begin(), merged.end(), TopKSink::Better);
  if (merged.size() > k) merged.resize(k);
  return merged;
}

}  // namespace gsgrow
