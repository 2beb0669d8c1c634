#include "core/clogsgrow.h"

#include "core/growth_engine.h"
#include "core/parallel_engine.h"
#include "core/semantics_sink.h"
#include "util/logging.h"

namespace gsgrow {

MiningResult MineClosedFrequent(const InvertedIndex& index,
                                const MinerOptions& options) {
  GSGROW_CHECK_MSG(options.min_support >= 1, "min_support must be >= 1");
  // Closure checks are root-local (restricted prefix sets derive from the
  // node's own support set), so each worker owns a private ClosurePruning
  // arena — and, when annotating, a private TableIAnnotator — and the
  // closed set is thread-count invariant.
  return MineWithSelectedSink(index, options, [&](auto make_sink) {
    return MineSharded(
        options,
        [&](SharedRunState& state) {
          return GrowthEngine(UnconstrainedExtension(index),
                              ClosurePruning(index, options), make_sink(),
                              options, &state);
        },
        CommitChunks);
  });
}

MiningResult MineClosedFrequent(const SequenceDatabase& db,
                                const MinerOptions& options) {
  InvertedIndex index(db);
  return MineClosedFrequent(index, options);
}

}  // namespace gsgrow
