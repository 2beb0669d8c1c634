#include "core/gsgrow.h"

#include "core/growth_engine.h"
#include "core/parallel_engine.h"
#include "core/semantics_sink.h"
#include "util/logging.h"

namespace gsgrow {

MiningResult MineAllFrequent(const InvertedIndex& index,
                             const MinerOptions& options) {
  GSGROW_CHECK_MSG(options.min_support >= 1, "min_support must be >= 1");
  // The sink ladder (collect × annotate) lives in MineWithSelectedSink;
  // annotation is a per-emission decoration that never changes which
  // patterns are mined, and each worker owns a private annotator, so the
  // sharded output stays byte-identical at any thread count.
  return MineWithSelectedSink(index, options, [&](auto make_sink) {
    return MineSharded(
        options,
        [&](SharedRunState& state) {
          return GrowthEngine(UnconstrainedExtension(index), NoPruning(),
                              make_sink(), options, &state);
        },
        CommitChunks);
  });
}

MiningResult MineAllFrequent(const SequenceDatabase& db,
                             const MinerOptions& options) {
  InvertedIndex index(db);
  return MineAllFrequent(index, options);
}

}  // namespace gsgrow
