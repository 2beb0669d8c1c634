#include "baselines/clospan.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/logging.h"
#include "util/timer.h"

namespace gsgrow {

namespace {

class CloSpanRun {
 public:
  CloSpanRun(const SequenceDatabase& db,
             const SequentialMinerOptions& options)
      : db_(db), options_(options), budget_(options.time_budget_seconds) {}

  MiningResult Run() {
    WallTimer timer;
    ProjectedDatabase root;
    for (SeqId i = 0; i < db_.size(); ++i) {
      if (db_[i].length() > 0) root.push_back({i, 0});
    }
    Dfs(root);
    // The closure filter is exact only over the complete candidate set, and
    // it is quadratic in a support group's size: a stopped run has neither
    // a complete set nor time left, so it reports its candidates as they
    // stand (flagged truncated) instead of overrunning its budget.
    result_.patterns = stopped_ ? std::move(candidates_)
                                : FilterClosedSequential(candidates_);
    result_.stats.patterns_found = result_.patterns.size();
    result_.stats.elapsed_seconds = timer.ElapsedSeconds();
    return std::move(result_);
  }

 private:
  // Total remaining suffix length; equal values for comparable patterns mean
  // identical projected databases (CloSpan's key observation).
  uint64_t ProjectedSize(const ProjectedDatabase& projection) const {
    uint64_t total = 0;
    for (const ProjectedEntry& entry : projection) {
      total += db_[entry.seq].length() - entry.suffix_start;
    }
    return total;
  }

  void Dfs(const ProjectedDatabase& projection) {
    result_.stats.nodes_visited++;
    if (stopped_) return;
    if (!budget_.IsUnlimited() && budget_.Expired()) {
      Stop("time_budget");
      return;
    }

    if (!pattern_.empty()) {
      const uint64_t support = projection.size();
      const uint64_t size_key = ProjectedSize(projection);
      // Backward sub-pattern pruning: if an already-explored pattern with
      // the same projected-database size is a proper supersequence, this
      // subtree is entirely dominated.
      PatternTable& bucket = explored_[size_key];
      for (const PatternRow q : bucket) {
        if (q.support == support && pattern_.size() < q.events.size() &&
            IsSubsequence(pattern_, q.events)) {
          result_.stats.lb_pruned_subtrees++;  // reuse the pruning counter
          return;
        }
      }
      bucket.Append(pattern_, support);
      candidates_.Append(pattern_, support);
      if (candidates_.size() >= options_.max_patterns) {
        Stop("max_patterns");
        return;
      }
    }

    if (pattern_.size() >= options_.max_pattern_length) return;

    std::unordered_map<EventId, uint64_t> seq_counts;
    std::unordered_set<EventId> seen;
    for (const ProjectedEntry& entry : projection) {
      const Sequence& s = db_[entry.seq];
      seen.clear();
      for (Position p = entry.suffix_start; p < s.length(); ++p) {
        if (seen.insert(s[p]).second) seq_counts[s[p]]++;
      }
    }
    std::vector<std::pair<EventId, uint64_t>> frequent;
    for (const auto& [e, count] : seq_counts) {
      if (count >= options_.min_support) frequent.emplace_back(e, count);
    }
    std::sort(frequent.begin(), frequent.end());

    for (const auto& [e, count] : frequent) {
      if (stopped_) return;
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
      result_.stats.max_depth =
          std::max(result_.stats.max_depth, pattern_.size());
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
  PatternTable candidates_;
  std::unordered_map<uint64_t, PatternTable> explored_;
  std::vector<EventId> pattern_;
  bool stopped_ = false;
};

}  // namespace

MiningResult MineCloSpan(const SequenceDatabase& db,
                         const SequentialMinerOptions& options) {
  GSGROW_CHECK_MSG(options.min_support >= 1, "min_support must be >= 1");
  return CloSpanRun(db, options).Run();
}

}  // namespace gsgrow
