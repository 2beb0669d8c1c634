#include "core/clogsgrow.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "core/gsgrow.h"
#include "core/reference.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using testing::AsSet;

TEST(CloGSgrow, ClosedSubsetOfAllFrequent) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  MinerOptions options;
  options.min_support = 2;
  auto all = AsSet(db, MineAllFrequent(db, options).patterns);
  auto closed = AsSet(db, MineClosedFrequent(db, options).patterns);
  for (const auto& p : closed) {
    EXPECT_TRUE(all.count(p)) << p.first;
  }
  EXPECT_LT(closed.size(), all.size());
}

TEST(CloGSgrow, EqualsClosureFilteredReference) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  for (uint64_t min_sup : {1, 2, 3, 4}) {
    MinerOptions options;
    options.min_support = min_sup;
    MiningResult closed = MineClosedFrequent(db, options);
    PatternTable expected =
        FilterClosed(ReferenceMineAll(db, min_sup));
    EXPECT_EQ(AsSet(db, closed.patterns), AsSet(db, expected))
        << "min_sup=" << min_sup;
  }
}

TEST(CloGSgrow, SingletonDatabase) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AAAA"});
  MinerOptions options;
  options.min_support = 1;
  MiningResult closed = MineClosedFrequent(db, options);
  // Supports strictly decrease with length (4, 3, 2, 1), so every pattern
  // A..AAAA is closed.
  auto set = AsSet(db, closed.patterns);
  std::set<std::pair<std::string, uint64_t>> expected = {
      {"A", 4}, {"AA", 3}, {"AAA", 2}, {"AAAA", 1}};
  EXPECT_EQ(set, expected);
}

TEST(CloGSgrow, LandmarkBorderPruningPreservesOutput) {
  Rng rng(777);
  for (int round = 0; round < 15; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 3, 2, 12, 3);
    for (uint64_t min_sup : {1, 2, 3}) {
      MinerOptions with_lb;
      with_lb.min_support = min_sup;
      with_lb.use_landmark_border_pruning = true;
      MinerOptions without_lb = with_lb;
      without_lb.use_landmark_border_pruning = false;
      EXPECT_EQ(AsSet(db, MineClosedFrequent(db, with_lb).patterns),
                AsSet(db, MineClosedFrequent(db, without_lb).patterns))
          << "round=" << round << " min_sup=" << min_sup;
    }
  }
}

// The insert-candidate filter (DESIGN.md §1) only drops candidates that
// cannot reach equal support, so CloGSgrow must still equal the reference
// miner's closure-filtered output, with and without LBCheck.
TEST(CloGSgrow, InsertCandidateFilterPreservesOutput) {
  Rng rng(888);
  for (int round = 0; round < 15; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 3, 2, 12, 3);
    const auto expected = AsSet(db, FilterClosed(ReferenceMineAll(db, 2)));
    for (bool lb_pruning : {true, false}) {
      MinerOptions options;
      options.min_support = 2;
      options.use_landmark_border_pruning = lb_pruning;
      EXPECT_EQ(AsSet(db, MineClosedFrequent(db, options).patterns), expected)
          << "round=" << round << " lb=" << lb_pruning;
    }
  }
}

TEST(CloGSgrow, LBCheckActuallyPrunes) {
  // Example 3.6's database: the AA subtree is prunable.
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  MinerOptions options;
  options.min_support = 3;
  MiningResult with_lb = MineClosedFrequent(db, options);
  options.use_landmark_border_pruning = false;
  MiningResult without_lb = MineClosedFrequent(db, options);
  EXPECT_GT(with_lb.stats.lb_pruned_subtrees, 0u);
  EXPECT_LT(with_lb.stats.nodes_visited, without_lb.stats.nodes_visited);
}

// Two sequences "AB" at min_sup 2: prepending A keeps root B's support and
// its last landmarks, so LBCheck prunes B's subtree. The subtree verdict
// comes before the append pass, so B grows no child. Counted by hand:
//  * A:  the prepend scan probes B once; the append pass grows AA and AB
//        (2 growths, 4 probes); AB keeps the support, so A is suppressed.
//  * AB: the insert scan builds one rightmost column (1 probe) and probes
//        two pairs (2 probes); the append pass grows ABB (1 growth, 2
//        probes); AB is emitted.
//  * B:  prepending A is admitted (2 probes) and regrown (2 steps, 2
//        probes): pruned. Growing BA and BB first would add 2 growths and
//        4 probes.
TEST(CloGSgrow, LBPrunedNodeGrowsNoAppendChild) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB", "AB"});
  MinerOptions options;
  options.min_support = 2;
  const MiningResult result = MineClosedFrequent(db, options);
  const std::set<std::pair<std::string, uint64_t>> expected = {{"AB", 2}};
  EXPECT_EQ(AsSet(db, result.patterns), expected);
  EXPECT_EQ(result.stats.nodes_visited, 3u);
  EXPECT_EQ(result.stats.lb_pruned_subtrees, 1u);
  EXPECT_EQ(result.stats.nonclosed_suppressed, 1u);
  EXPECT_EQ(result.stats.closure_checks, 3u);
  EXPECT_EQ(result.stats.closure_regrow_events, 2u);
  EXPECT_EQ(result.stats.insgrow_calls, 2u + 1u + 2u);
  EXPECT_EQ(result.stats.next_queries, 5u + 5u + 4u);
}

// With LBCheck off the subtree verdict is a no-op and the scan follows the
// append pass, skipped where an equal-support append already decides the
// node, so the counters are those of one check after the children. Same
// answers as with LBCheck.
TEST(CloGSgrow, WithoutLBCheckTheScanFollowsTheChildren) {
  struct Case {
    std::vector<std::string> rows;
    uint64_t min_support;
    uint64_t nodes, insgrow, next_queries, checks, suppressed;
  };
  // "AB","AB": A and B both grow their append children (2 growths, 4
  // probes each); A's equal-support append skips its scan, B's scan stops
  // at the admitted prepend (2 probes), AB's scans 3 probes after growing
  // ABB (1 growth, 2 probes).
  const std::vector<Case> cases = {
      {{"AB", "AB"}, 2, 3, 5, 15, 2, 2},
      // Example 3.6's database.
      {{"ABCACBDDB", "ACDBACADD"}, 3, 23, 56, 374, 16, 16},
  };
  for (const Case& c : cases) {
    SequenceDatabase db = MakeDatabaseFromStrings(c.rows);
    MinerOptions options;
    options.min_support = c.min_support;
    const MiningResult with_lb = MineClosedFrequent(db, options);
    options.use_landmark_border_pruning = false;
    const MiningResult result = MineClosedFrequent(db, options);
    EXPECT_EQ(AsSet(db, result.patterns), AsSet(db, with_lb.patterns));
    EXPECT_EQ(result.stats.nodes_visited, c.nodes);
    EXPECT_EQ(result.stats.insgrow_calls, c.insgrow);
    EXPECT_EQ(result.stats.next_queries, c.next_queries);
    EXPECT_EQ(result.stats.closure_checks, c.checks);
    EXPECT_EQ(result.stats.nonclosed_suppressed, c.suppressed);
    EXPECT_EQ(result.stats.lb_pruned_subtrees, 0u);
    EXPECT_EQ(result.stats.closure_regrow_events, 0u);
  }
}

TEST(CloGSgrow, EveryEmittedPatternIsActuallyClosed) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  InvertedIndex index(db);
  MinerOptions options;
  options.min_support = 2;
  MiningResult closed = MineClosedFrequent(db, options);
  for (const PatternRow r : closed.patterns) {
    // Check all single-event extensions keep strictly smaller support.
    for (size_t gap = 0; gap <= r.events.size(); ++gap) {
      for (EventId e = 0; e < db.AlphabetSize(); ++e) {
        Pattern ext = r.pattern().InsertAt(gap, e);
        EXPECT_LT(ComputeSupport(index, ext), r.support)
            << r.pattern().ToCompactString(db.dictionary()) << " + "
            << db.dictionary().Name(e) << " at " << gap;
      }
    }
  }
}

TEST(CloGSgrow, NodeAccountingIdentity) {
  // Without truncation, every visited node is exactly one of: emitted,
  // suppressed as non-closed, or the root of an LBCheck-pruned subtree.
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCABCABC"});
  MinerOptions options;
  options.min_support = 2;
  MiningResult closed = MineClosedFrequent(db, options);
  ASSERT_FALSE(closed.stats.truncated);
  EXPECT_EQ(closed.stats.nonclosed_suppressed + closed.patterns.size() +
                closed.stats.lb_pruned_subtrees,
            closed.stats.nodes_visited);
  MiningResult all = MineAllFrequent(db, options);
  EXPECT_LE(closed.patterns.size(), all.patterns.size());
}

TEST(CloGSgrow, MaxPatternsTruncates) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCABCABC", "CBACBA"});
  MinerOptions options;
  options.min_support = 1;
  options.max_patterns = 2;
  MiningResult result = MineClosedFrequent(db, options);
  EXPECT_EQ(result.patterns.size(), 2u);
  EXPECT_TRUE(result.stats.truncated);
}

TEST(CloGSgrow, EmptyDatabase) {
  SequenceDatabase db;
  MinerOptions options;
  options.min_support = 1;
  EXPECT_TRUE(MineClosedFrequent(db, options).patterns.empty());
}

}  // namespace
}  // namespace gsgrow
