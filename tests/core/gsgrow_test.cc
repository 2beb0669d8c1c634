#include "core/gsgrow.h"

#include <algorithm>

#include "gtest/gtest.h"

#include "core/reference.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using testing::AsSet;

TEST(GSgrow, TinyDatabaseExactOutput) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB"});
  MinerOptions options;
  options.min_support = 2;
  MiningResult result = MineAllFrequent(db, options);
  auto set = AsSet(db, result.patterns);
  std::set<std::pair<std::string, uint64_t>> expected = {
      {"A", 2}, {"B", 2}, {"AB", 2}};
  EXPECT_EQ(set, expected);
  EXPECT_FALSE(result.stats.truncated);
}

TEST(GSgrow, SupportsAreCorrectOnPaperDatabase) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  MinerOptions options;
  options.min_support = 3;
  MiningResult result = MineAllFrequent(db, options);
  for (const PatternRow r : result.patterns) {
    EXPECT_EQ(r.support, ReferenceSupport(db, r.pattern()))
        << r.pattern().ToCompactString(db.dictionary());
    EXPECT_GE(r.support, 3u);
  }
}

TEST(GSgrow, MatchesReferenceEnumerationOnPaperDatabase) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  for (uint64_t min_sup : {1, 2, 3, 4, 5}) {
    MinerOptions options;
    options.min_support = min_sup;
    MiningResult result = MineAllFrequent(db, options);
    PatternTable ref = ReferenceMineAll(db, min_sup);
    EXPECT_EQ(AsSet(db, result.patterns), AsSet(db, ref))
        << "min_sup=" << min_sup;
  }
}

TEST(GSgrow, EmptyDatabaseYieldsNothing) {
  SequenceDatabase db;
  MinerOptions options;
  options.min_support = 1;
  MiningResult result = MineAllFrequent(db, options);
  EXPECT_TRUE(result.patterns.empty());
}

TEST(GSgrow, MinSupAboveEverythingYieldsNothing) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABC"});
  MinerOptions options;
  options.min_support = 10;
  MiningResult result = MineAllFrequent(db, options);
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(result.stats.nodes_visited, 0u);
}

TEST(GSgrow, MaxPatternLengthCapsDepth) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCABCABC"});
  MinerOptions options;
  options.min_support = 2;
  options.max_pattern_length = 2;
  MiningResult result = MineAllFrequent(db, options);
  for (const PatternRow r : result.patterns) {
    EXPECT_LE(r.events.size(), 2u);
  }
  EXPECT_EQ(result.stats.max_depth, 2u);
}

TEST(GSgrow, MaxPatternsTruncates) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCABCABC", "ABCABC"});
  MinerOptions options;
  options.min_support = 2;
  options.max_patterns = 3;
  MiningResult result = MineAllFrequent(db, options);
  EXPECT_EQ(result.patterns.size(), 3u);
  EXPECT_TRUE(result.stats.truncated);
  EXPECT_EQ(result.stats.truncated_reason, "max_patterns");
}

TEST(GSgrow, TimeBudgetZeroTruncatesImmediately) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCABCABC"});
  MinerOptions options;
  options.min_support = 1;
  options.time_budget_seconds = 0.0;
  MiningResult result = MineAllFrequent(db, options);
  EXPECT_TRUE(result.stats.truncated);
  EXPECT_EQ(result.stats.truncated_reason, "time_budget");
}

TEST(GSgrow, CandidateListOnOffEquivalent) {
  Rng rng(4242);
  for (int round = 0; round < 10; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 3, 2, 12, 3);
    for (uint64_t min_sup : {2, 3}) {
      MinerOptions with_list;
      with_list.min_support = min_sup;
      with_list.use_candidate_list = true;
      MinerOptions without_list = with_list;
      without_list.use_candidate_list = false;
      EXPECT_EQ(AsSet(db, MineAllFrequent(db, with_list).patterns),
                AsSet(db, MineAllFrequent(db, without_list).patterns));
    }
  }
}

TEST(GSgrow, StatsAreAccumulated) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCABC"});
  MinerOptions options;
  options.min_support = 2;
  MiningResult result = MineAllFrequent(db, options);
  EXPECT_EQ(result.stats.patterns_found, result.patterns.size());
  EXPECT_GT(result.stats.nodes_visited, 0u);
  EXPECT_GT(result.stats.insgrow_calls, 0u);
  EXPECT_GE(result.stats.elapsed_seconds, 0.0);
}

TEST(GSgrow, ApplicationOnPrebuiltIndex) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB", "ABAB"});
  InvertedIndex index(db);
  MinerOptions options;
  options.min_support = 4;
  MiningResult via_index = MineAllFrequent(index, options);
  MiningResult via_db = MineAllFrequent(db, options);
  EXPECT_EQ(AsSet(db, via_index.patterns), AsSet(db, via_db.patterns));
}

// Apriori consistency: every prefix of an emitted pattern is emitted with
// support no smaller.
TEST(GSgrow, PrefixSupportMonotone) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  MinerOptions options;
  options.min_support = 2;
  MiningResult result = MineAllFrequent(db, options);
  std::map<Pattern, uint64_t> by_pattern;
  for (const PatternRow r : result.patterns) {
    by_pattern[r.pattern()] = r.support;
  }
  for (const PatternRow r : result.patterns) {
    if (r.events.size() < 2) continue;
    std::vector<EventId> prefix_events(r.events.begin(), r.events.end() - 1);
    Pattern prefix(prefix_events);
    ASSERT_TRUE(by_pattern.count(prefix));
    EXPECT_GE(by_pattern[prefix], r.support);
  }
}

}  // namespace
}  // namespace gsgrow
