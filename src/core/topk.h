// Top-K closed pattern mining: find the K closed repetitive gapped
// subsequences with the highest supports without asking the user for a
// min_sup value up front.
//
// Implemented by threshold descent: start from the highest single-event
// support and repeatedly halve the threshold until K qualifying closed
// patterns exist (or the floor of 1 is reached), then return the K best.
// Each descent step runs the GrowthEngine in its closed-mining
// configuration (growth_engine.h) into a bounded TopKSink: memory stays
// O(K), and once the heap fills, its weakest support feeds back into the
// engine as a rising floor that prunes subtrees no qualifying pattern can
// come from (extension never increases support).

#ifndef GSGROW_CORE_TOPK_H_
#define GSGROW_CORE_TOPK_H_

#include "core/inverted_index.h"
#include "core/miner_options.h"
#include "core/mining_result.h"
#include "core/sequence_database.h"

namespace gsgrow {

/// The options.k closed patterns (length >= options.min_length) with the
/// highest repetitive supports, sorted by descending support then ascending
/// pattern. May return fewer than K when the database has fewer closed
/// patterns or the budget expires.
///
/// Each descent step runs on a copy of `options` whose min_support is the
/// step's threshold and whose time budget is what remains of the whole
/// descent's; every other field applies as given. num_threads shards each
/// step (per-worker K-bounded heaps share a rising support floor and merge
/// exactly, so the answer is identical at any thread count, ties at the
/// k-th support included). Semantics annotations are computed only for
/// emissions the K-heap keeps (TopKSink::WouldKeep) and never change WHICH
/// patterns win. collect_patterns is ignored: the answer is always the
/// K-heap's records.
PatternTable MineTopKClosed(const SequenceDatabase& db,
                            const MinerOptions& options);

/// Same over a prebuilt index: the serving path (serve/mining_service.h)
/// answers many top-K queries against one long-lived snapshot without
/// re-indexing per query. Returns the full MiningResult — when the budget
/// expires mid-descent the returned set may be a partial answer, and
/// stats.truncated says so (the db overload, like the other facades'
/// convenience forms, keeps its historical patterns-only shape). The work
/// counters and elapsed time in stats are summed over every descent step.
MiningResult MineTopKClosed(const InvertedIndex& index,
                            const MinerOptions& options);

}  // namespace gsgrow

#endif  // GSGROW_CORE_TOPK_H_
