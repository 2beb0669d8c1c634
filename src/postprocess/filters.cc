#include "postprocess/filters.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/pattern.h"

namespace gsgrow {

namespace {

// The rows of `from` listed in `order`, in that order.
PatternTable SelectRows(const PatternTable& from,
                        const std::vector<size_t>& order) {
  PatternTable out;
  for (const size_t row : order) out.AppendRows(from, row, row + 1);
  return out;
}

}  // namespace

double PatternDensity(std::span<const EventId> events) {
  if (events.empty()) return 0.0;
  std::unordered_set<EventId> unique(events.begin(), events.end());
  return static_cast<double>(unique.size()) /
         static_cast<double>(events.size());
}

PatternTable FilterByDensity(const PatternTable& rows, double min_density) {
  std::vector<size_t> kept;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (PatternDensity(rows.events(i)) > min_density) kept.push_back(i);
  }
  return SelectRows(rows, kept);
}

PatternTable FilterMaximal(const PatternTable& rows) {
  // Order rows by length descending so each pattern is only compared
  // against longer ones.
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return rows.events(a).size() > rows.events(b).size();
  });
  std::vector<size_t> kept;
  for (const size_t idx : order) {
    const std::span<const EventId> events = rows.events(idx);
    bool maximal = true;
    for (const size_t k : kept) {
      if (events.size() < rows.events(k).size() &&
          IsSubsequence(events, rows.events(k))) {
        maximal = false;
        break;
      }
    }
    if (maximal) kept.push_back(idx);
  }
  return SelectRows(rows, kept);
}

PatternTable FilterByAnnotationFloor(const PatternTable& rows,
                                     SemanticsMeasure measure,
                                     uint64_t min_value) {
  std::vector<size_t> kept;
  for (size_t i = 0; i < rows.size(); ++i) {
    uint64_t value = 0;
    if (FindAnnotation(rows[i].annotations, measure, &value) &&
        value >= min_value) {
      kept.push_back(i);
    }
  }
  return SelectRows(rows, kept);
}

PatternTable RankByLength(const PatternTable& rows) {
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const std::span<const EventId> ea = rows.events(a);
    const std::span<const EventId> eb = rows.events(b);
    if (ea.size() != eb.size()) return ea.size() > eb.size();
    if (rows.support(a) != rows.support(b)) {
      return rows.support(a) > rows.support(b);
    }
    return std::lexicographical_compare(ea.begin(), ea.end(), eb.begin(),
                                        eb.end());
  });
  return SelectRows(rows, order);
}

PatternTable CaseStudyPipeline(const PatternTable& rows,
                               const CaseStudyOptions& options) {
  return RankByLength(
      FilterMaximal(FilterByDensity(rows, options.min_density)));
}

}  // namespace gsgrow
