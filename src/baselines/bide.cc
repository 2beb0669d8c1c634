#include "baselines/bide.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/logging.h"
#include "util/timer.h"

namespace gsgrow {

namespace {

class BideRun {
 public:
  BideRun(const SequenceDatabase& db, const BideOptions& options)
      : db_(db), options_(options), budget_(options.time_budget_seconds) {}

  MiningResult Run() {
    WallTimer timer;
    ProjectedDatabase root;
    for (SeqId i = 0; i < db_.size(); ++i) {
      if (db_[i].length() > 0) root.push_back({i, 0});
    }
    Dfs(root);
    result_.stats.elapsed_seconds = timer.ElapsedSeconds();
    return std::move(result_);
  }

 private:
  void Dfs(const ProjectedDatabase& projection) {
    result_.stats.nodes_visited++;
    if (stopped_) return;
    if (!budget_.IsUnlimited() && budget_.Expired()) {
      Stop("time_budget");
      return;
    }

    // Frequent forward extensions (sequence counts in the projection).
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

    if (!pattern_.empty()) {
      const uint64_t support = projection.size();
      // BackScan pruning: any event present in some i-th SEMI-maximum
      // period of every containing sequence kills the whole subtree.
      if (options_.use_backscan_pruning && HasCommonPeriodEvent(
              projection, /*use_semi_periods=*/true)) {
        result_.stats.lb_pruned_subtrees++;  // reuse the pruning counter
        return;
      }
      bool forward_closed = true;
      for (const auto& [e, count] : frequent) {
        if (count == support) {
          forward_closed = false;
          break;
        }
      }
      const bool backward_closed =
          !HasCommonPeriodEvent(projection, /*use_semi_periods=*/false);
      if (forward_closed && backward_closed) {
        result_.patterns.Append(pattern_, support);
        result_.stats.patterns_found++;
        if (result_.stats.patterns_found >= options_.max_patterns) {
          Stop("max_patterns");
          return;
        }
      } else {
        result_.stats.nonclosed_suppressed++;
      }
    }

    if (pattern_.size() >= options_.max_pattern_length) return;
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

  // True iff some event occurs in the i-th (semi-)maximum period of every
  // sequence containing the current pattern, for some i in [1, |pattern_|].
  bool HasCommonPeriodEvent(const ProjectedDatabase& projection,
                            bool use_semi_periods) {
    const size_t m = pattern_.size();
    const Pattern pattern(pattern_);
    // Precompute first/last instances per containing sequence.
    std::vector<std::vector<Position>> firsts, lasts;
    firsts.reserve(projection.size());
    for (const ProjectedEntry& entry : projection) {
      const Sequence& s = db_[entry.seq];
      firsts.push_back(FirstInstance(s, pattern));
      GSGROW_DCHECK(!firsts.back().empty());
      if (!use_semi_periods) {
        lasts.push_back(LastInstance(s, pattern));
        GSGROW_DCHECK(!lasts.back().empty());
      }
    }
    std::unordered_set<EventId> common, next_common;
    for (size_t i = 1; i <= m; ++i) {
      common.clear();
      bool first_seq = true;
      bool empty_intersection = false;
      for (size_t k = 0; k < projection.size(); ++k) {
        const Sequence& s = db_[projection[k].seq];
        // Period bounds [lo, hi) in 0-based positions.
        const Position lo = (i == 1) ? 0 : firsts[k][i - 2] + 1;
        const Position hi =
            use_semi_periods ? firsts[k][i - 1] : lasts[k][i - 1];
        if (first_seq) {
          for (Position p = lo; p < hi; ++p) common.insert(s[p]);
          first_seq = false;
        } else {
          next_common.clear();
          for (Position p = lo; p < hi; ++p) {
            if (common.count(s[p])) next_common.insert(s[p]);
          }
          common.swap(next_common);
        }
        if (common.empty()) {
          empty_intersection = true;
          break;
        }
      }
      if (!empty_intersection && !common.empty()) return true;
    }
    return false;
  }

  void Stop(const char* reason) {
    stopped_ = true;
    result_.stats.truncated = true;
    result_.stats.truncated_reason = reason;
  }

  const SequenceDatabase& db_;
  const BideOptions& options_;
  TimeBudget budget_;
  MiningResult result_;
  std::vector<EventId> pattern_;
  bool stopped_ = false;
};

}  // namespace

MiningResult MineBide(const SequenceDatabase& db, const BideOptions& options) {
  GSGROW_CHECK_MSG(options.min_support >= 1, "min_support must be >= 1");
  return BideRun(db, options).Run();
}

}  // namespace gsgrow
