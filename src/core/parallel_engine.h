// Root-sharded parallel mining (DESIGN.md §6) — the ROADMAP "Scale" item.
//
// The GrowthEngine's root loop is embarrassingly parallel: every frequent
// length-1 pattern owns an independent DFS subtree (extension state, closure
// checks, and emission for a pattern depend only on the pattern's own
// prefix-set stack, which lives on one worker's stack). MineSharded runs one
// single-threaded GrowthEngine per worker, all claiming roots from a shared
// dispenser (SharedRunState::next_root), then merges the per-worker
// MiningResults:
//
//  * patterns — each root's subtree is explored by exactly one worker, so
//    shard outputs are disjoint. A collecting worker's table holds one chunk
//    per root it claimed, each already in canonical order (CollectSink), so
//    committing the chunks in root order (CommitChunks) yields the
//    canonical answer with no sort; top-K heaps merge under
//    TopKSink::Better. Either way the merged table is byte-identical at any
//    thread count;
//  * stats — per-subtree counters are independent of the worker that ran
//    them, so the sums are thread-count invariant too (max_depth maxes,
//    elapsed_seconds is the parallel wall-clock, not the sum);
//  * truncation — a cooperative stop flag (CooperativeStop) propagates
//    max_patterns / time_budget across workers with a first-writer-wins
//    reason;
//  * top-K — workers keep private K-bounded heaps and share a monotone
//    atomic support floor; MergeTopKPatterns proves below why the merged
//    heaps contain the exact global top-K.
//
// Workers allocate their own engine scratch, closure arenas, and sinks;
// the only shared mutable state is the handful of atomics in
// SharedRunState. The index, database, and options are read-only.

#ifndef GSGROW_CORE_PARALLEL_ENGINE_H_
#define GSGROW_CORE_PARALLEL_ENGINE_H_

#include <cstddef>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/growth_engine.h"
#include "core/miner_options.h"
#include "core/mining_result.h"
#include "util/timer.h"

namespace gsgrow {

/// Most workers one run uses. The DFS is CPU-bound, so workers beyond the
/// hardware threads only time-slice the same cores; the cap keeps a
/// request's thread count from exhausting the host's thread and memory-map
/// limits (a sanitizer runtime dies of that before std::thread can report
/// it).
inline constexpr size_t kMaxWorkers = 256;

/// Worker count for a run: `requested`, with 0 meaning one worker per
/// hardware thread (at least 1), capped at kMaxWorkers.
size_t ResolveNumThreads(size_t requested);

/// Adds one worker's counters into `total`: counts sum, max_depth maxes.
/// `truncated`, `truncated_reason`, and `elapsed_seconds` are owned by the
/// merging caller and left untouched.
void AccumulateStats(const MiningStats& worker, MiningStats* total);

/// Best-K selection over the union of per-worker top-K heaps, under
/// TopKSink::Better (support desc, pattern asc). Exact: a pattern of the
/// true global top-K has fewer than K better patterns globally, hence fewer
/// than K better within its own worker, hence it survives in that worker's
/// heap; and every kept record is a genuinely emitted pattern, so selecting
/// the best K of the union yields exactly the global top-K. Ties at the
/// k-th support resolve by the canonical pattern order — never by heap
/// insertion or worker finish order.
PatternTable MergeTopKPatterns(std::vector<PatternTable> shards, size_t k);

/// Runs `make_engine(state)` once per worker (options.num_threads workers,
/// resolved via ResolveNumThreads) against one SharedRunState, then merges
/// the workers' tables with `merge_patterns(shards)` (CommitChunks for
/// collected output) and stats as described above.
/// Worker 0 is the calling thread and only the others are spawned, so with
/// one worker the engine runs inline, making num_threads=1 exactly the
/// classic single-threaded behavior. A worker the host cannot spawn ends
/// the spawning instead of the process: roots are claimed dynamically, so
/// the workers that do run drain the dispenser and the answer is the same.
///
/// `make_engine` must return a ready-to-Run GrowthEngine whose policies and
/// sink are freshly constructed per call (workers must not share scratch);
/// everything it captures must outlive the call.
template <typename EngineFactory, typename PatternMerger>
MiningResult MineSharded(const MinerOptions& options,
                         EngineFactory make_engine,
                         PatternMerger merge_patterns) {
  const size_t num_threads = ResolveNumThreads(options.num_threads);
  WallTimer timer;
  SharedRunState state(options);
  // Slots of helpers that could not be spawned stay empty and merge as
  // nothing.
  std::vector<MiningResult> results(num_threads);
  std::vector<std::thread> helpers;
  for (size_t w = 1; w < num_threads; ++w) {
    try {
      helpers.emplace_back([&make_engine, &state, &results, w] {
        results[w] = make_engine(state).Run();
      });
    } catch (const std::system_error&) {
      break;
    }
  }
  results[0] = make_engine(state).Run();
  for (std::thread& helper : helpers) helper.join();

  MiningResult merged;
  std::vector<PatternTable> shards;
  shards.reserve(results.size());
  for (MiningResult& r : results) {
    AccumulateStats(r.stats, &merged.stats);
    shards.push_back(std::move(r.patterns));
  }
  merged.patterns = merge_patterns(std::move(shards));
  if (state.stop.stopped()) {
    merged.stats.truncated = true;
    merged.stats.truncated_reason = state.stop.reason();
  }
  merged.stats.elapsed_seconds = timer.ElapsedSeconds();
  return merged;
}

}  // namespace gsgrow

#endif  // GSGROW_CORE_PARALLEL_ENGINE_H_
