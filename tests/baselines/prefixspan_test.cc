#include "baselines/prefixspan.h"

#include "gtest/gtest.h"

#include "test_util.h"

namespace gsgrow {
namespace {

using testing::AsSet;
using testing::MakePattern;

// Exhaustive oracle: enumerate all patterns up to a length bound by BFS and
// keep the frequent ones under sequence-count support.
PatternTable BruteSequentialMineAll(const SequenceDatabase& db,
                                                  uint64_t min_sup,
                                                  size_t max_len = 8) {
  PatternTable out;
  std::vector<Pattern> frontier = {Pattern()};
  std::vector<EventId> alphabet;
  for (EventId e = 0; e < db.AlphabetSize(); ++e) alphabet.push_back(e);
  for (size_t len = 0; len < max_len && !frontier.empty(); ++len) {
    std::vector<Pattern> next;
    for (const Pattern& p : frontier) {
      for (EventId e : alphabet) {
        Pattern grown = p.Grow(e);
        uint64_t sup = SequenceCountSupport(db, grown);
        if (sup >= min_sup) {
          out.Append(grown.events(), sup);
          next.push_back(std::move(grown));
        }
      }
    }
    frontier = std::move(next);
  }
  return out;
}

TEST(PrefixSpan, TinyExactOutput) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB", "AB", "BA"});
  SequentialMinerOptions options;
  options.min_support = 2;
  MiningResult result = MinePrefixSpan(db, options);
  auto set = AsSet(db, result.patterns);
  std::set<std::pair<std::string, uint64_t>> expected = {
      {"A", 3}, {"B", 3}, {"AB", 2}};
  EXPECT_EQ(set, expected);
}

TEST(PrefixSpan, RepetitionsWithinSequenceDoNotCount) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABABABAB", "CD"});
  SequentialMinerOptions options;
  options.min_support = 1;
  MiningResult result = MinePrefixSpan(db, options);
  for (const PatternRow r : result.patterns) {
    EXPECT_LE(r.support, db.size());
  }
}

TEST(PrefixSpan, MatchesBruteForce) {
  Rng rng(2024);
  for (int round = 0; round < 15; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 4, 1, 8, 3);
    for (uint64_t min_sup : {1, 2, 3}) {
      SequentialMinerOptions options;
      options.min_support = min_sup;
      MiningResult result = MinePrefixSpan(db, options);
      EXPECT_EQ(AsSet(db, result.patterns),
                AsSet(db, BruteSequentialMineAll(db, min_sup)))
          << "round=" << round << " min_sup=" << min_sup;
    }
  }
}

TEST(PrefixSpan, EmptyDatabase) {
  SequenceDatabase db;
  SequentialMinerOptions options;
  options.min_support = 1;
  EXPECT_TRUE(MinePrefixSpan(db, options).patterns.empty());
}

TEST(PrefixSpan, MaxLengthCap) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCD", "ABCD"});
  SequentialMinerOptions options;
  options.min_support = 2;
  options.max_pattern_length = 2;
  MiningResult result = MinePrefixSpan(db, options);
  for (const PatternRow r : result.patterns) {
    EXPECT_LE(r.events.size(), 2u);
  }
}

TEST(PrefixSpan, MaxPatternsTruncates) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCD", "ABCD"});
  SequentialMinerOptions options;
  options.min_support = 2;
  options.max_patterns = 3;
  MiningResult result = MinePrefixSpan(db, options);
  EXPECT_EQ(result.patterns.size(), 3u);
  EXPECT_TRUE(result.stats.truncated);
}

TEST(PrefixSpan, SupportValuesAreSequenceCounts) {
  SequenceDatabase db =
      MakeDatabaseFromStrings({"AABCDABB", "ABCD"});  // Example 1.1
  SequentialMinerOptions options;
  options.min_support = 2;
  MiningResult result = MinePrefixSpan(db, options);
  auto set = AsSet(db, result.patterns);
  // Sequential mining sees AB and CD as equally frequent (support 2).
  EXPECT_TRUE(set.count({"AB", 2}));
  EXPECT_TRUE(set.count({"CD", 2}));
}

}  // namespace
}  // namespace gsgrow
