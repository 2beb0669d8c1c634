// Post-processing of mined pattern sets — the §IV-B case-study pipeline:
//   1. Density: keep patterns whose fraction of unique events exceeds a
//      threshold (the paper uses > 40%).
//   2. Maximality: keep only patterns that are not sub-patterns of another
//      reported pattern.
//   3. Ranking: order by length, longest first.
//
// Scope note (DESIGN.md §7): these filters CONSUME PatternTable rows; they do
// not evaluate per-pattern measures against the database. Length floors are
// owned by the mining sinks (MinerOptions::min_length), and Table-I
// semantics values are owned by the emission-time annotation layer
// (MinerOptions::semantics / core/semantics_sink.h) — post-hoc rescans of
// the raw sequences to re-derive either would be a second source of truth.
// FilterByAnnotationFloor below is the annotation-routed selection path;
// every filter preserves the rows' annotation blocks.

#ifndef GSGROW_POSTPROCESS_FILTERS_H_
#define GSGROW_POSTPROCESS_FILTERS_H_

#include <cstdint>
#include <span>

#include "core/pattern_table.h"
#include "core/types.h"

namespace gsgrow {

/// Fraction of unique events in the pattern, in (0, 1]; 0 for empty.
double PatternDensity(std::span<const EventId> events);

/// Keeps rows with PatternDensity > min_density (strict, as in the
/// paper's "number of unique events is >40% of its length").
PatternTable FilterByDensity(const PatternTable& rows, double min_density);

/// Keeps rows whose pattern is not a proper sub-pattern of any other row's
/// pattern (support values are ignored, as in the case study), longest
/// first.
PatternTable FilterMaximal(const PatternTable& rows);

/// Keeps rows whose annotation block carries `measure` with a value
/// >= `min_value`. The values are the ones computed by the mining sinks
/// (mine with MinerOptions::semantics enabling the measure); rows whose
/// block lacks the measure are dropped — this filter never rescans the
/// database to fill the gap, by design (header scope note).
PatternTable FilterByAnnotationFloor(const PatternTable& rows,
                                     SemanticsMeasure measure,
                                     uint64_t min_value);

/// Sorts by descending length; ties by descending support, then pattern.
PatternTable RankByLength(const PatternTable& rows);

/// The full §IV-B pipeline: density > `min_density`, maximality, ranking.
struct CaseStudyOptions {
  double min_density = 0.4;
};
PatternTable CaseStudyPipeline(const PatternTable& rows,
                               const CaseStudyOptions& options = {});

}  // namespace gsgrow

#endif  // GSGROW_POSTPROCESS_FILTERS_H_
