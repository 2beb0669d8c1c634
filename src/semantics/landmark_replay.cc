#include "semantics/landmark_replay.h"

#include <algorithm>

namespace gsgrow {

void ReplayLeftmostCompletions(const InvertedIndex& index, SeqId i,
                               std::span<const EventId> pattern,
                               std::vector<LandmarkCompletion>* out,
                               std::vector<PositionCursor>* cursors) {
  out->clear();
  const std::span<const Position> starts = index.Positions(i, pattern[0]);
  if (starts.empty()) return;
  if (pattern.size() == 1) {
    out->reserve(starts.size());
    for (Position p : starts) out->push_back(LandmarkCompletion{p, p});
    return;
  }
  // One forward-only cursor per pattern position j >= 1. Across ascending
  // starts, the j-th matched landmark is non-decreasing (a later start can
  // only push every landmark right), so each cursor sees non-decreasing
  // query bounds — the PositionCursor contract.
  cursors->clear();
  cursors->reserve(pattern.size());
  for (size_t j = 1; j < pattern.size(); ++j) {
    PositionCursor c = index.Cursor(i, pattern[j]);
    if (c.empty()) return;  // some pattern event is absent: no completions
    cursors->push_back(c);
  }
  for (Position start : starts) {
    Position pos = start;
    bool complete = true;
    for (PositionCursor& cursor : *cursors) {
      pos = cursor.NextAtOrAfter(pos + 1);
      if (pos == kNoPosition) {
        complete = false;
        break;
      }
    }
    // Failure is monotone in the start: if the greedy embedding from this
    // occurrence ran out of positions, every later occurrence does too.
    if (!complete) break;
    out->push_back(LandmarkCompletion{start, pos});
  }
}

void BuildAlphabet(std::span<const EventId> events,
                   std::vector<EventId>* out) {
  out->assign(events.begin(), events.end());
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

void ReplayProjectedEvents(const InvertedIndex& index, SeqId i,
                           std::span<const EventId> alphabet,
                           std::vector<ProjectedEvent>* out) {
  out->clear();
  size_t total = 0;
  for (EventId e : alphabet) total += index.Positions(i, e).size();
  if (out->capacity() < total) out->reserve(total);
  for (EventId e : alphabet) {
    for (Position p : index.Positions(i, e)) {
      out->push_back(ProjectedEvent{p, e});
    }
  }
  // Positions across distinct events are disjoint, so position order is a
  // strict total order and the merge is deterministic.
  std::sort(out->begin(), out->end(),
            [](const ProjectedEvent& a, const ProjectedEvent& b) {
              return a.pos < b.pos;
            });
}

}  // namespace gsgrow
