#include "core/topk.h"

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "test_util.h"

namespace gsgrow {
namespace {

TEST(TopK, ReturnsHighestSupportClosedPatterns) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  MinerOptions options;
  options.k = 3;
  std::vector<PatternRecord> top = MineTopKClosed(db, options);
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
  for (const PatternRecord& r : closed.patterns) {
    best = std::max(best, r.support);
  }
  EXPECT_EQ(top[0].support, best);
}

TEST(TopK, MatchesFullMiningPrefix) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCABCABC", "CABCAB"});
  MinerOptions options;
  options.k = 5;
  std::vector<PatternRecord> top = MineTopKClosed(db, options);
  MinerOptions full;
  full.min_support = 1;
  MiningResult closed = MineClosedFrequent(db, full);
  std::sort(closed.patterns.begin(), closed.patterns.end(),
            [](const PatternRecord& a, const PatternRecord& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.pattern < b.pattern;
            });
  ASSERT_LE(top.size(), closed.patterns.size());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].support, closed.patterns[i].support) << i;
  }
}

TEST(TopK, MinLengthFiltersSingleEvents) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABABAB", "ABAB"});
  MinerOptions options;
  options.k = 2;
  options.min_length = 2;
  std::vector<PatternRecord> top = MineTopKClosed(db, options);
  ASSERT_FALSE(top.empty());
  for (const PatternRecord& r : top) {
    EXPECT_GE(r.pattern.size(), 2u);
  }
}

TEST(TopK, KLargerThanPatternCount) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB"});
  MinerOptions options;
  options.k = 100;
  std::vector<PatternRecord> top = MineTopKClosed(db, options);
  // Only closed patterns exist: A, B, AB all with support 1 -> AB closed,
  // A and B non-closed. Exactly one pattern.
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].pattern.size(), 2u);
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
  std::vector<PatternRecord> top = MineTopKClosed(db, options);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].pattern.ToCompactString(db.dictionary()), "LU");
  EXPECT_EQ(top[0].support, 9u);
}

}  // namespace
}  // namespace gsgrow
