#include "core/semantics_sink.h"

#include <algorithm>
#include <limits>

#include "core/instance_growth.h"
#include "semantics/interaction_support.h"
#include "semantics/iterative_support.h"
#include "semantics/sequence_count_support.h"
#include "semantics/window_support.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace gsgrow {

void TableIAnnotator::Annotate(const std::vector<EventId>& events,
                               const SupportSet& support_set,
                               SemanticsAnnotations* out) {
  out->values.clear();
  GSGROW_DCHECK(!events.empty());
  const SemanticsOptions& sel = options_;
  const bool need_completions =
      sel.fixed_window || sel.minimal_window || sel.interaction;
  uint64_t sequence_count = 0;
  uint64_t fixed_window = 0;
  uint64_t minimal_window = 0;
  uint64_t gap_occurrences = 0;
  uint64_t interaction = 0;
  uint64_t iterative = 0;
  const GapRequirement gap{sel.min_gap, sel.max_gap};
  // The projection alphabet depends only on the pattern — build it once,
  // not per relevant sequence.
  if (sel.iterative) BuildAlphabet(events, &alphabet_);
  // Only the sequences where the pattern occurs can contribute: sup_i = 0
  // means no embedding in sequence i, so every Table-I measure is 0 there.
  // The support set is seq-sorted; walk its distinct sequence ids.
  for (size_t k = 0; k < support_set.size();) {
    const SeqId seq = support_set[k].seq;
    while (k < support_set.size() && support_set[k].seq == seq) ++k;
    ++sequence_count;
    if (need_completions) {
      ReplayLeftmostCompletions(*index_, seq, events, &completions_,
                                &cursors_);
      if (sel.fixed_window) {
        fixed_window += FixedWindowCountFromLandmarks(
            completions_, index_->SequenceLength(seq), sel.window_width);
      }
      if (sel.minimal_window) {
        minimal_window += MinimalWindowCountFromLandmarks(completions_);
      }
      if (sel.interaction) {
        interaction +=
            events.size() == 1
                ? index_->Count(seq, events[0])
                : InteractionCountFromLandmarks(
                      completions_, index_->Positions(seq, events.back()));
      }
    }
    if (sel.gap_occurrences) {
      gap_occurrences += GapOccurrenceCountWithCursor(*index_, seq, events,
                                                      gap, &gap_scratch_);
    }
    if (sel.iterative) {
      ReplayProjectedEvents(*index_, seq, alphabet_, &projection_);
      iterative += IterativeCountFromProjection(projection_, events);
    }
  }
  // Canonical (enumerator) order — the serialization and merge contract.
  if (sel.sequence_count) {
    out->values.push_back(
        {SemanticsMeasure::kSequenceCount, sequence_count});
  }
  if (sel.fixed_window) {
    out->values.push_back({SemanticsMeasure::kFixedWindow, fixed_window});
  }
  if (sel.minimal_window) {
    out->values.push_back({SemanticsMeasure::kMinimalWindow, minimal_window});
  }
  if (sel.gap_occurrences) {
    out->values.push_back(
        {SemanticsMeasure::kGapOccurrences, gap_occurrences});
  }
  if (sel.interaction) {
    out->values.push_back({SemanticsMeasure::kInteraction, interaction});
  }
  if (sel.iterative) {
    out->values.push_back({SemanticsMeasure::kIterative, iterative});
  }
}

SemanticsAnnotations TableIAnnotator::AnnotatePattern(const Pattern& pattern) {
  SemanticsAnnotations out;
  const SupportSet support_set = ComputeSupportSet(*index_, pattern);
  Annotate(pattern.events(), support_set, &out);
  return out;
}

SemanticsAnnotations AnnotatePostHoc(const SequenceDatabase& db,
                                     const Pattern& pattern,
                                     const SemanticsOptions& options) {
  SemanticsAnnotations out;
  if (options.sequence_count) {
    out.values.push_back(
        {SemanticsMeasure::kSequenceCount, SequenceCount(db, pattern)});
  }
  if (options.fixed_window) {
    out.values.push_back(
        {SemanticsMeasure::kFixedWindow,
         FixedWindowSupport(db, pattern, options.window_width)});
  }
  if (options.minimal_window) {
    out.values.push_back(
        {SemanticsMeasure::kMinimalWindow, MinimalWindowSupport(db, pattern)});
  }
  if (options.gap_occurrences) {
    out.values.push_back(
        {SemanticsMeasure::kGapOccurrences,
         GapSupport(db, pattern,
                    GapRequirement{options.min_gap, options.max_gap})});
  }
  if (options.interaction) {
    out.values.push_back(
        {SemanticsMeasure::kInteraction, InteractionSupport(db, pattern)});
  }
  if (options.iterative) {
    out.values.push_back(
        {SemanticsMeasure::kIterative, IterativeSupport(db, pattern)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kSpecVocabulary =
    "sequence_count (seqcount), fixed_window (window; param w), "
    "minimal_window (minwindow), gap_occurrences (gap; params min, max), "
    "interaction, iterative, all";

Status SpecError(std::string_view item, std::string_view detail) {
  return Status::InvalidArgument("bad --semantics item '" + std::string(item) +
                                 "': " + std::string(detail) +
                                 "; valid measures: " +
                                 std::string(kSpecVocabulary));
}

}  // namespace

Result<SemanticsOptions> ParseSemanticsSpec(std::string_view spec) {
  SemanticsOptions out;
  const std::string_view trimmed = Trim(spec);
  if (trimmed.empty()) {
    return Status::InvalidArgument(
        "empty --semantics spec; valid measures: " +
        std::string(kSpecVocabulary));
  }
  size_t item_pos = 0;
  for (std::string_view item = NextToken(trimmed, ",", &item_pos);
       !item.empty(); item = NextToken(trimmed, ",", &item_pos)) {
    size_t part_pos = 0;
    const std::string_view name = NextToken(item, ":", &part_pos);
    if (name.empty()) continue;
    // Per-measure key=value parameters.
    bool want_w = false;
    bool want_gap_params = false;
    if (name == "sequence_count" || name == "seqcount") {
      out.sequence_count = true;
    } else if (name == "fixed_window" || name == "window") {
      out.fixed_window = true;
      want_w = true;
    } else if (name == "minimal_window" || name == "minwindow") {
      out.minimal_window = true;
    } else if (name == "gap_occurrences" || name == "gap") {
      out.gap_occurrences = true;
      want_gap_params = true;
    } else if (name == "interaction") {
      out.interaction = true;
    } else if (name == "iterative") {
      out.iterative = true;
    } else if (name == "all") {
      const size_t w = out.window_width;
      const size_t min_gap = out.min_gap;
      const size_t max_gap = out.max_gap;
      out = SemanticsOptions::All(w, min_gap, max_gap);
      want_w = want_gap_params = true;
    } else {
      return SpecError(item, "unknown measure '" + std::string(name) + "'");
    }
    for (std::string_view part = NextToken(item, ":", &part_pos);
         !part.empty(); part = NextToken(item, ":", &part_pos)) {
      // Exactly two non-empty '='-separated pieces: key and value.
      size_t kv_pos = 0;
      const std::string_view key = NextToken(part, "=", &kv_pos);
      const std::string_view raw = NextToken(part, "=", &kv_pos);
      int64_t value = 0;
      if (raw.empty() || !NextToken(part, "=", &kv_pos).empty() ||
          !ParseInt64(raw, &value) || value < 0) {
        return SpecError(item, "expected key=value with a non-negative "
                               "integer, got '" +
                                   std::string(part) + "'");
      }
      if (key == "w" && want_w) {
        if (value == 0) return SpecError(item, "window width must be >= 1");
        out.window_width = static_cast<size_t>(value);
      } else if (key == "min" && want_gap_params) {
        out.min_gap = static_cast<size_t>(value);
      } else if (key == "max" && want_gap_params) {
        out.max_gap = static_cast<size_t>(value);
      } else {
        return SpecError(item, "unknown parameter '" + std::string(key) +
                                   "' for '" + std::string(name) + "'");
      }
    }
  }
  if (out.gap_occurrences && out.min_gap > out.max_gap) {
    return SpecError(spec, "gap requires min <= max");
  }
  return out;
}

bool SelectionEnables(const SemanticsOptions& options,
                      SemanticsMeasure measure) {
  switch (measure) {
    case SemanticsMeasure::kSequenceCount: return options.sequence_count;
    case SemanticsMeasure::kFixedWindow: return options.fixed_window;
    case SemanticsMeasure::kMinimalWindow: return options.minimal_window;
    case SemanticsMeasure::kGapOccurrences: return options.gap_occurrences;
    case SemanticsMeasure::kInteraction: return options.interaction;
    case SemanticsMeasure::kIterative: return options.iterative;
  }
  return false;
}

std::string SemanticsSpecToString(const SemanticsOptions& options) {
  std::string spec;
  // Starts the next comma-separated item.
  const auto item = [&spec](std::string_view text) {
    if (!spec.empty()) spec += ',';
    spec += text;
  };
  if (options.sequence_count) item("sequence_count");
  if (options.fixed_window) {
    item("fixed_window:w=");
    spec += std::to_string(options.window_width);
  }
  if (options.minimal_window) item("minimal_window");
  if (options.gap_occurrences) {
    item("gap_occurrences:min=");
    spec += std::to_string(options.min_gap);
    if (options.max_gap != std::numeric_limits<size_t>::max()) {
      spec += ":max=";
      spec += std::to_string(options.max_gap);
    }
  }
  if (options.interaction) item("interaction");
  if (options.iterative) item("iterative");
  return spec;
}

}  // namespace gsgrow
