#include "baselines/sequential_common.h"

#include "gtest/gtest.h"

#include "test_util.h"

namespace gsgrow {
namespace {

using testing::MakePattern;

TEST(SequenceContains, Basic) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCD"});
  EXPECT_TRUE(SequenceContains(db[0], MakePattern(db, "AC")));
  EXPECT_TRUE(SequenceContains(db[0], MakePattern(db, "ABCD")));
  EXPECT_FALSE(SequenceContains(db[0], MakePattern(db, "CA")));
  EXPECT_FALSE(SequenceContains(db[0], MakePattern(db, "ABCDA")));
}

TEST(SequenceCountSupport, CountsSequencesNotOccurrences) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB", "AB", "BA"});
  EXPECT_EQ(SequenceCountSupport(db, MakePattern(db, "AB")), 2u);
  EXPECT_EQ(SequenceCountSupport(db, MakePattern(db, "A")), 3u);
}

TEST(SequenceCountSupport, PaperExample11BothPatternsEqual) {
  // Sequential pattern mining cannot differentiate AB from CD here.
  SequenceDatabase db = MakeDatabaseFromStrings({"AABCDABB", "ABCD"});
  EXPECT_EQ(SequenceCountSupport(db, MakePattern(db, "AB")), 2u);
  EXPECT_EQ(SequenceCountSupport(db, MakePattern(db, "CD")), 2u);
}

TEST(FirstInstance, GreedyEarliest) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCABC"});
  std::vector<Position> lm = FirstInstance(db[0], MakePattern(db, "AC"));
  EXPECT_EQ(lm, (std::vector<Position>{0, 2}));
}

TEST(FirstInstance, MissingPatternIsEmpty) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABC"});
  EXPECT_TRUE(FirstInstance(db[0], MakePattern(db, "CA")).empty());
}

TEST(LastInstance, GreedyLatest) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCABC"});
  std::vector<Position> lm = LastInstance(db[0], MakePattern(db, "AC"));
  EXPECT_EQ(lm, (std::vector<Position>{3, 5}));
}

TEST(LastInstance, SingleEvent) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABA"});
  EXPECT_EQ(LastInstance(db[0], MakePattern(db, "A")),
            (std::vector<Position>{2}));
}

TEST(LastInstance, MissingPatternIsEmpty) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABC"});
  EXPECT_TRUE(LastInstance(db[0], MakePattern(db, "CBA")).empty());
}

TEST(FirstLastInstance, InterleaveOrdering) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AABB"});
  EXPECT_EQ(FirstInstance(db[0], MakePattern(db, "AB")),
            (std::vector<Position>{0, 2}));
  EXPECT_EQ(LastInstance(db[0], MakePattern(db, "AB")),
            (std::vector<Position>{1, 3}));
}

TEST(FilterClosedSequential, DropsDominatedPatterns) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABC", "ABC", "AB"});
  PatternTable records = testing::MakeTable({
      {MakePattern(db, "A"), 3},  {MakePattern(db, "AB"), 3},
      {MakePattern(db, "B"), 3},  {MakePattern(db, "ABC"), 2},
      {MakePattern(db, "AC"), 2}, {MakePattern(db, "C"), 2},
  });
  PatternTable closed = FilterClosedSequential(records);
  auto set = testing::AsSet(db, closed);
  EXPECT_TRUE(set.count({"AB", 3}));
  EXPECT_FALSE(set.count({"A", 3}));
  EXPECT_FALSE(set.count({"B", 3}));
  EXPECT_TRUE(set.count({"ABC", 2}));
  EXPECT_FALSE(set.count({"AC", 2}));
  EXPECT_FALSE(set.count({"C", 2}));
}

TEST(FilterClosedSequential, DifferentSupportsNotCompared) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB", "A"});
  PatternTable records = testing::MakeTable({
      {MakePattern(db, "A"), 2},
      {MakePattern(db, "AB"), 1},
  });
  PatternTable closed = FilterClosedSequential(records);
  EXPECT_EQ(closed.size(), 2u);
}

}  // namespace
}  // namespace gsgrow
