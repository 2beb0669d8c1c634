// CloSpan-style closed sequential pattern mining (Yan, Han & Afshar,
// SDM 2003): PrefixSpan search with candidate maintenance, pruned by the
// equal-projected-database-size check, followed by a closure post-filter.
//
// Implementation note: of CloSpan's two pruning rules we implement backward
// SUB-pattern pruning (a newly reached pattern that is a subsequence of an
// already-explored pattern with the same projected-database size spans an
// identical projected database; its whole subtree is dominated and is
// skipped). The backward super-pattern "transplanting" optimization is not
// replicated; instead those dominated candidates are removed by the final
// closure filter, which preserves exactness at some cost in speed. A run
// stopped by its time budget or max_patterns skips that filter and returns
// its unfiltered candidates (stats.truncated is set).
// Support semantics: number of sequences containing the pattern.

#ifndef GSGROW_BASELINES_CLOSPAN_H_
#define GSGROW_BASELINES_CLOSPAN_H_

#include "baselines/sequential_common.h"
#include "core/mining_result.h"
#include "core/sequence_database.h"

namespace gsgrow {

/// Mines all CLOSED sequential patterns (sequence-count support).
MiningResult MineCloSpan(const SequenceDatabase& db,
                         const SequentialMinerOptions& options);

}  // namespace gsgrow

#endif  // GSGROW_BASELINES_CLOSPAN_H_
