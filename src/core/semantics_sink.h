// The semantics-annotation layer of the engine (DESIGN.md §7).
//
// The paper's Table I contrasts repetitive gapped support with five other
// repetition semantics. Historically those measures lived only as
// whole-sequence post-hoc scanners in src/semantics — O(patterns × DB)
// rescans after mining. This layer computes them AT EMISSION TIME instead:
//
//  * TableIAnnotator evaluates the selected measures for one emitted
//    pattern from state the engine already has — the node's materialized
//    leftmost support set pins down the sequences the pattern occurs in
//    (every other sequence contributes 0 to every Table-I measure), and
//    the per-sequence values are replayed from the InvertedIndex through
//    forward-only PositionCursor queries (semantics/landmark_replay.h).
//    No raw sequence is ever rescanned.
//
//  * AnnotatingSink<Inner> is a decorator over any EmissionSink
//    (Collect / Count / TopK): it annotates each emission and forwards the
//    block to the inner sink, which stores it in its table's annotation
//    column. Annotation values are a pure function of
//    (pattern, database, selection), so annotated output merges
//    deterministically across worker shards (parallel_engine.h) and stays
//    byte-identical at any thread count.
//
// The selection travels as MinerOptions::semantics through all four miner
// facades (MineClosedFrequent / MineAllFrequent return annotated records
// whenever it enables a measure), and AnnotatePostHoc is the reference
// baseline (whole-sequence scanners over the full database) that the
// differential tests and bench/table1_semantics compare against.

#ifndef GSGROW_CORE_SEMANTICS_SINK_H_
#define GSGROW_CORE_SEMANTICS_SINK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/growth_engine.h"
#include "core/instance.h"
#include "core/inverted_index.h"
#include "core/miner_options.h"
#include "core/mining_result.h"
#include "core/pattern.h"
#include "core/sequence_database.h"
#include "core/types.h"
#include "semantics/gap_support.h"
#include "semantics/landmark_replay.h"
#include "util/status.h"

namespace gsgrow {

/// What AnnotatingSink requires of its annotator: compute the annotation
/// block of one emitted pattern from its event list and (unconstrained
/// leftmost) support set. Implementations own whatever scratch they need;
/// each engine worker constructs its own annotator, so no synchronization
/// is required.
template <typename A>
concept SemanticsAnnotator =
    requires(A a, const std::vector<EventId>& events, const SupportSet& set,
             SemanticsAnnotations* out) {
      { a.Annotate(events, set, out) };
    };

/// Computes the Table-I measures selected in a SemanticsOptions for one
/// pattern, by landmark replay against the inverted index (header comment).
/// Scratch buffers persist across Annotate calls, so steady-state
/// annotation performs no allocations beyond cold-start growth.
class TableIAnnotator {
 public:
  TableIAnnotator(const InvertedIndex& index, const SemanticsOptions& options)
      : index_(&index), options_(options) {}

  /// Fills `out` with the selected measures in canonical order. `events`
  /// must be non-empty; `support_set` must be a seq-sorted support set of
  /// the pattern whose distinct sequence ids are exactly the sequences
  /// containing it (any leftmost support set qualifies — for the bounded-
  /// gap policy, the engine's unconstrained state does too).
  void Annotate(const std::vector<EventId>& events,
                const SupportSet& support_set, SemanticsAnnotations* out);

  /// Post-hoc convenience over the same replay path: derives the leftmost
  /// support set itself (supComp), then annotates. Used by tools that
  /// annotate already-mined pattern lists against an index.
  SemanticsAnnotations AnnotatePattern(const Pattern& pattern);

  const SemanticsOptions& options() const { return options_; }

 private:
  const InvertedIndex* index_;
  SemanticsOptions options_;
  // Replay scratch (landmark_replay.h / gap_support.h).
  std::vector<LandmarkCompletion> completions_;
  std::vector<PositionCursor> cursors_;
  std::vector<ProjectedEvent> projection_;
  std::vector<EventId> alphabet_;
  GapCountScratch gap_scratch_;
};

static_assert(SemanticsAnnotator<TableIAnnotator>);

/// Decorator over an EmissionSink: annotates every emission and forwards it
/// through the inner sink's EmitAnnotated. The engine-facing surface
/// (BeginRoot / Emit / SupportFloor / Take) is unchanged, so any policy
/// combination can be annotated. When the inner sink exposes WouldKeep
/// (TopKSink), an emission it would reject skips the annotation work
/// entirely — the reject decision never depends on the annotation block,
/// so the kept set is unchanged.
template <typename Inner, SemanticsAnnotator Annotator = TableIAnnotator>
class AnnotatingSink {
 public:
  AnnotatingSink(Annotator annotator, Inner inner)
      : annotator_(std::move(annotator)), inner_(std::move(inner)) {}

  void Emit(const std::vector<EventId>& events, uint64_t support,
            const SupportSet& support_set) {
    if constexpr (requires { inner_.WouldKeep(events, support); }) {
      // WouldKeep is the inner sink's exact accept test, so a rejected
      // emission needs neither annotation nor forwarding — Emit would be a
      // no-op (and the floor only rises, so the verdict cannot flip).
      if (!inner_.WouldKeep(events, support)) return;
    }
    annotator_.Annotate(events, support_set, &scratch_);
    inner_.EmitAnnotated(events, support, scratch_);
  }

  void BeginRoot(size_t root) { inner_.BeginRoot(root); }

  uint64_t SupportFloor() const { return inner_.SupportFloor(); }

  PatternTable Take() { return inner_.Take(); }

 private:
  Annotator annotator_;
  Inner inner_;
  SemanticsAnnotations scratch_;
};

// ---------------------------------------------------------------------------
// Facades and references
// ---------------------------------------------------------------------------

/// The one sink-selection ladder shared by the miner facades: calls
/// `mine(make_sink)` exactly once, with `make_sink` building the sink kind
/// `options` asks for — CollectSink when patterns are collected, CountSink
/// otherwise, each wrapped in an AnnotatingSink when the semantics
/// selection enables any measure. Keeping the collect × annotate branching
/// here (instead of copy-pasted per facade) means a new sink or annotator
/// wiring changes one place.
template <typename MineFn>
MiningResult MineWithSelectedSink(const InvertedIndex& index,
                                  const MinerOptions& options, MineFn mine) {
  const bool annotate = options.semantics.AnyEnabled();
  if (options.collect_patterns) {
    if (annotate) {
      return mine([&] {
        return AnnotatingSink(TableIAnnotator(index, options.semantics),
                              CollectSink());
      });
    }
    return mine([] { return CollectSink(); });
  }
  if (annotate) {
    return mine([&] {
      return AnnotatingSink(TableIAnnotator(index, options.semantics),
                            CountSink());
    });
  }
  return mine([] { return CountSink(); });
}

/// Reference baseline: the selected measures computed by the standalone
/// whole-sequence scanners of src/semantics over the ENTIRE database —
/// the O(patterns × DB) post-hoc path the annotation layer replaces. The
/// differential suites and bench/table1_semantics assert this equals the
/// one-pass annotations on every pattern.
SemanticsAnnotations AnnotatePostHoc(const SequenceDatabase& db,
                                     const Pattern& pattern,
                                     const SemanticsOptions& options);

// ---------------------------------------------------------------------------
// Selection spec parsing (mine_cli --semantics)
// ---------------------------------------------------------------------------

/// Parses a comma-separated measure list into a SemanticsOptions:
///
///   "window:w=10,iterative"      width-10 fixed windows + QRE occurrences
///   "gap:min=0:max=3,seqcount"   bounded-gap landmarks + sequence count
///   "all" / "all:w=4"            every measure
///
/// Measure names (aliases in parentheses): sequence_count (seqcount),
/// fixed_window (window; param w), minimal_window (minwindow),
/// gap_occurrences (gap; params min, max), interaction, iterative, all.
/// Returns InvalidArgument with the offending item and the valid
/// vocabulary on any malformed input.
Result<SemanticsOptions> ParseSemanticsSpec(std::string_view spec);

/// Canonical spec string for a selection ("" when nothing is enabled);
/// ParseSemanticsSpec round-trips it. Used by the bench JSON rows.
std::string SemanticsSpecToString(const SemanticsOptions& options);

/// True when the selection computes `measure` — i.e. records mined with
/// `options` will carry it in their annotation block. Lets consumers of
/// annotation-routed filters validate up front instead of silently
/// matching nothing.
bool SelectionEnables(const SemanticsOptions& options,
                      SemanticsMeasure measure);

}  // namespace gsgrow

#endif  // GSGROW_CORE_SEMANTICS_SINK_H_
