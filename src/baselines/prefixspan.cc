#include "baselines/prefixspan.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/logging.h"
#include "util/timer.h"

namespace gsgrow {

namespace {

class PrefixSpanRun {
 public:
  PrefixSpanRun(const SequenceDatabase& db,
                const SequentialMinerOptions& options)
      : db_(db), options_(options), budget_(options.time_budget_seconds) {}

  MiningResult Run() {
    WallTimer timer;
    ProjectedDatabase root;
    root.reserve(db_.size());
    for (SeqId i = 0; i < db_.size(); ++i) {
      if (db_[i].length() > 0) root.push_back({i, 0});
    }
    Dfs(root);
    result_.stats.elapsed_seconds = timer.ElapsedSeconds();
    return std::move(result_);
  }

 private:
  // Frequent events in the projected database, with per-event projections.
  // An event is counted once per sequence (first occurrence in the suffix).
  void Dfs(const ProjectedDatabase& projection) {
    result_.stats.nodes_visited++;
    if (stopped_) return;
    if (!budget_.IsUnlimited() && budget_.Expired()) {
      Stop("time_budget");
      return;
    }
    if (pattern_.size() >= options_.max_pattern_length) return;

    // Count sequences per candidate event across suffixes.
    std::unordered_map<EventId, uint64_t> seq_counts;
    for (const ProjectedEntry& entry : projection) {
      const Sequence& s = db_[entry.seq];
      seen_.clear();
      for (Position p = entry.suffix_start; p < s.length(); ++p) {
        if (seen_.insert(s[p]).second) seq_counts[s[p]]++;
      }
    }
    std::vector<std::pair<EventId, uint64_t>> frequent;
    for (const auto& [e, count] : seq_counts) {
      if (count >= options_.min_support) frequent.emplace_back(e, count);
    }
    std::sort(frequent.begin(), frequent.end());

    for (const auto& [e, count] : frequent) {
      if (stopped_) return;
      // Project: advance each sequence past its first occurrence of e.
      ProjectedDatabase next;
      next.reserve(count);
      for (const ProjectedEntry& entry : projection) {
        const Sequence& s = db_[entry.seq];
        for (Position p = entry.suffix_start; p < s.length(); ++p) {
          if (s[p] == e) {
            next.push_back({entry.seq, static_cast<Position>(p + 1)});
            break;
          }
        }
      }
      pattern_.push_back(e);
      result_.patterns.Append(pattern_, count);
      result_.stats.patterns_found++;
      result_.stats.max_depth =
          std::max(result_.stats.max_depth, pattern_.size());
      if (result_.stats.patterns_found >= options_.max_patterns) {
        Stop("max_patterns");
        pattern_.pop_back();
        return;
      }
      Dfs(next);
      pattern_.pop_back();
    }
  }

  void Stop(const char* reason) {
    stopped_ = true;
    result_.stats.truncated = true;
    result_.stats.truncated_reason = reason;
  }

  const SequenceDatabase& db_;
  const SequentialMinerOptions& options_;
  TimeBudget budget_;
  MiningResult result_;
  std::vector<EventId> pattern_;
  std::unordered_set<EventId> seen_;
  bool stopped_ = false;
};

}  // namespace

MiningResult MinePrefixSpan(const SequenceDatabase& db,
                            const SequentialMinerOptions& options) {
  GSGROW_CHECK_MSG(options.min_support >= 1, "min_support must be >= 1");
  return PrefixSpanRun(db, options).Run();
}

}  // namespace gsgrow
