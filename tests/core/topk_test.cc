#include "core/topk.h"

#include <algorithm>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/inverted_index.h"
#include "core/parallel_engine.h"
#include "test_util.h"

namespace gsgrow {
namespace {

TEST(TopK, ReturnsHighestSupportClosedPatterns) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  MinerOptions options;
  options.k = 3;
  PatternTable top = MineTopKClosed(db, options);
  ASSERT_EQ(top.size(), 3u);
  // Sorted by support descending.
  EXPECT_GE(top[0].support, top[1].support);
  EXPECT_GE(top[1].support, top[2].support);
  // The best single closed patterns here have support 5 (AD, D... by
  // closedness AD and B etc.); verify against a full closed mining run.
  MinerOptions full;
  full.min_support = 1;
  MiningResult closed = MineClosedFrequent(db, full);
  uint64_t best = 0;
  for (const PatternRow r : closed.patterns) {
    best = std::max(best, r.support);
  }
  EXPECT_EQ(top[0].support, best);
}

TEST(TopK, MatchesFullMiningPrefix) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCABCABC", "CABCAB"});
  MinerOptions options;
  options.k = 5;
  PatternTable top = MineTopKClosed(db, options);
  MinerOptions full;
  full.min_support = 1;
  MiningResult closed = MineClosedFrequent(db, full);
  closed.patterns = testing::SortedRows(closed.patterns, TopKSink::Better);
  ASSERT_LE(top.size(), closed.patterns.size());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].support, closed.patterns[i].support) << i;
  }
}

// The stats of a multi-step descent sum the work of every step. A step that
// fills fewer than K heap slots never raises the floor, so it does exactly
// the work of closed mining at its threshold; the last step is replayed
// alone through the support-floor hint.
TEST(TopK, StatsSumEveryDescentStep) {
  SequenceDatabase db = MakeDatabaseFromStrings(
      {"ABCACBDDB", "ACDBACADD", "ABDCABDA", "CADBBADC"});
  InvertedIndex index(db);
  MinerOptions options;
  options.k = 6;
  options.min_length = 2;
  const MiningResult descent = MineTopKClosed(index, options);

  uint64_t threshold = 0;
  for (EventId e : index.present_events()) {
    threshold = std::max(threshold, index.TotalCount(e));
  }
  MiningStats earlier;
  size_t steps = 1;
  for (;; ++steps) {
    MinerOptions step = options;
    step.min_support = threshold;
    const MiningResult closed = MineClosedFrequent(index, step);
    const size_t qualifying = static_cast<size_t>(std::count_if(
        closed.patterns.begin(), closed.patterns.end(),
        [](const PatternRow& r) { return r.events.size() >= 2; }));
    if (qualifying >= options.k || threshold == 1) break;
    AccumulateStats(closed.stats, &earlier);
    threshold = std::max<uint64_t>(1, threshold / 2);
  }
  ASSERT_GE(steps, 2u);
  MinerOptions last = options;
  last.support_floor_hint = threshold;
  const MiningStats final_step = MineTopKClosed(index, last).stats;

  const MiningStats& got = descent.stats;
  EXPECT_EQ(got.nodes_visited,
            earlier.nodes_visited + final_step.nodes_visited);
  EXPECT_EQ(got.insgrow_calls,
            earlier.insgrow_calls + final_step.insgrow_calls);
  EXPECT_EQ(got.next_queries, earlier.next_queries + final_step.next_queries);
  EXPECT_EQ(got.closure_checks,
            earlier.closure_checks + final_step.closure_checks);
  EXPECT_EQ(got.closure_regrow_events,
            earlier.closure_regrow_events + final_step.closure_regrow_events);
  EXPECT_EQ(got.lb_pruned_subtrees,
            earlier.lb_pruned_subtrees + final_step.lb_pruned_subtrees);
  EXPECT_EQ(got.patterns_found, descent.patterns.size());
  EXPECT_GT(got.nodes_visited, final_step.nodes_visited);
}

TEST(TopK, MinLengthFiltersSingleEvents) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABABAB", "ABAB"});
  MinerOptions options;
  options.k = 2;
  options.min_length = 2;
  PatternTable top = MineTopKClosed(db, options);
  ASSERT_FALSE(top.empty());
  for (const PatternRow r : top) {
    EXPECT_GE(r.events.size(), 2u);
  }
}

TEST(TopK, KLargerThanPatternCount) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB"});
  MinerOptions options;
  options.k = 100;
  PatternTable top = MineTopKClosed(db, options);
  // Only closed patterns exist: A, B, AB all with support 1 -> AB closed,
  // A and B non-closed. Exactly one pattern.
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].events.size(), 2u);
}

// A root whose event count is below the floor of a full heap cannot feed
// it (no pattern has more support than its first event's count), so the
// engine skips it before building its support set. A root that ties the
// floor is still visited: a tie can displace the weakest entry.
TEST(TopK, SkipsRootsBelowTheFullHeapFloor) {
  // Event counts A 4, B 4, C 2, D 1; roots are visited in that order.
  SequenceDatabase db = MakeDatabaseFromStrings({"AAAA", "BBBB", "CC", "D"});
  InvertedIndex index(db);
  MinerOptions options;
  options.k = 1;
  options.min_length = 1;
  options.support_floor_hint = 1;  // one engine run, at threshold 1
  const MiningResult top = MineTopKClosed(index, options);
  ASSERT_EQ(top.patterns.size(), 1u);
  EXPECT_EQ(std::vector<EventId>(top.patterns[0].events.begin(),
                                 top.patterns[0].events.end()),
            std::vector<EventId>{0});
  EXPECT_EQ(top.patterns[0].support, 4u);
  // A fills the heap at support 4, and its child AA (support 2) falls
  // below the floor; B ties the floor and is visited; C and D are skipped.
  // Without the skip, C and D would be visited too (4 nodes).
  EXPECT_EQ(top.stats.nodes_visited, 2u);
}

TEST(TopK, EmptyDatabase) {
  SequenceDatabase db;
  MinerOptions options;
  options.k = 3;
  EXPECT_TRUE(MineTopKClosed(db, options).empty());
}

TEST(TopK, JBossStyleTopPatternIsLockUnlockHeavy) {
  SequenceDatabase db =
      MakeDatabaseFromStrings({"LULULULU", "LULU", "LULULU"});
  MinerOptions options;
  options.k = 1;
  options.min_length = 2;
  PatternTable top = MineTopKClosed(db, options);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].pattern().ToCompactString(db.dictionary()), "LU");
  EXPECT_EQ(top[0].support, 9u);
}

}  // namespace
}  // namespace gsgrow
