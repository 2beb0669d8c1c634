#include "core/topk.h"

#include <algorithm>
#include <utility>

#include "core/growth_engine.h"
#include "core/inverted_index.h"
#include "core/parallel_engine.h"
#include "core/semantics_sink.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gsgrow {

PatternTable MineTopKClosed(const SequenceDatabase& db,
                            const MinerOptions& options) {
  InvertedIndex index(db);
  return std::move(MineTopKClosed(index, options).patterns);
}

MiningResult MineTopKClosed(const InvertedIndex& index,
                            const MinerOptions& options) {
  GSGROW_CHECK_MSG(options.k >= 1, "k must be >= 1");
  TimeBudget budget(options.time_budget_seconds);

  // The descent starts from the highest single-event support among the
  // events that may actually appear in a result (restriction applied);
  // starting higher would only add empty descent steps.
  uint64_t threshold = 0;
  for (EventId e : index.present_events()) {
    if (!AlphabetAllows(options, e)) continue;
    threshold = std::max(threshold, index.TotalCount(e));
  }
  if (threshold == 0) return {};
  // Warm start (MinerOptions::support_floor_hint): drop straight to the
  // hinted support. Never raise above the max single-event support — no
  // pattern can exceed it, so a larger hint would only add empty steps.
  if (options.support_floor_hint > 0 &&
      options.support_floor_hint < threshold) {
    threshold = options.support_floor_hint;
  }

  // Threshold descent, with each step running the closed-mining engine into
  // a bounded TopKSink: the heap caps memory at K records, and once full its
  // weakest support feeds back as a rising floor that prunes subtrees no
  // qualifying pattern can come from.
  MinerOptions miner_options = options;
  // Work counters of the descent steps before the current one; the result
  // reports their sum with the last step's.
  MiningStats earlier;
  for (;;) {
    miner_options.min_support = threshold;
    if (!budget.IsUnlimited()) {
      miner_options.time_budget_seconds =
          std::max(0.0, budget.LimitSeconds() - budget.ElapsedSeconds());
    }
    // The K-bounded heap needs the run's shared floor, so the sink factory
    // takes the worker's SharedRunState (unlike the Collect/Count ladder in
    // MineWithSelectedSink). Annotated records merge exactly like plain
    // ones: the annotation block is a function of the pattern, and
    // MergeTopKPatterns orders by (support, pattern) only.
    const auto run = [&](auto make_sink) {
      return MineSharded(
          miner_options,
          [&](SharedRunState& state) {
            return GrowthEngine(UnconstrainedExtension(index),
                                ClosurePruning(index, miner_options),
                                make_sink(state), miner_options, &state);
          },
          [&](std::vector<PatternTable> shards) {
            return MergeTopKPatterns(std::move(shards), options.k);
          });
    };
    MiningResult result =
        options.semantics.AnyEnabled()
            ? run([&](SharedRunState& state) {
                return AnnotatingSink(
                    TableIAnnotator(index, miner_options.semantics),
                    TopKSink(options.k, options.min_length,
                             &state.support_floor));
              })
            : run([&](SharedRunState& state) {
                return TopKSink(options.k, options.min_length,
                                &state.support_floor);
              });
    const bool out_of_budget =
        result.stats.truncated || (!budget.IsUnlimited() && budget.Expired());
    if (result.patterns.size() >= options.k || threshold == 1 ||
        out_of_budget) {
      // A budget stop anywhere in the descent leaves a possibly partial
      // top-K; report it as truncated even when the expiry landed between
      // engine runs (the last run's own flag would miss that case).
      if (out_of_budget && !result.stats.truncated) {
        result.stats.truncated = true;
        result.stats.truncated_reason = "time_budget";
      }
      AccumulateStats(earlier, &result.stats);
      result.stats.elapsed_seconds += earlier.elapsed_seconds;
      result.stats.patterns_found = result.patterns.size();
      return result;
    }
    AccumulateStats(result.stats, &earlier);
    earlier.elapsed_seconds += result.stats.elapsed_seconds;
    threshold = std::max<uint64_t>(1, threshold / 2);
  }
}

}  // namespace gsgrow
