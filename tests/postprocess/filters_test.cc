#include "postprocess/filters.h"

#include "gtest/gtest.h"

#include "test_util.h"

namespace gsgrow {
namespace {

using testing::MakePattern;

TEST(PatternDensity, Values) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCD"});
  EXPECT_DOUBLE_EQ(PatternDensity(MakePattern(db, "ABCD").events()), 1.0);
  EXPECT_DOUBLE_EQ(PatternDensity(MakePattern(db, "AAAA").events()), 0.25);
  EXPECT_DOUBLE_EQ(PatternDensity(MakePattern(db, "ABAB").events()), 0.5);
  EXPECT_DOUBLE_EQ(PatternDensity({}), 0.0);
}

TEST(FilterByDensity, StrictThreshold) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCD"});
  PatternTable records = testing::MakeTable({
      {MakePattern(db, "ABAB"), 5},  // density 0.5
      {MakePattern(db, "AAAA"), 9},  // density 0.25
      {MakePattern(db, "ABC"), 3},   // density 1.0
  });
  PatternTable kept = FilterByDensity(records, 0.4);
  ASSERT_EQ(kept.size(), 2u);
  // Strict: a pattern at exactly the threshold is dropped.
  kept = FilterByDensity(records, 0.5);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].pattern(), MakePattern(db, "ABC"));
}

TEST(FilterMaximal, DropsSubPatterns) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCD"});
  PatternTable records = testing::MakeTable({
      {MakePattern(db, "AB"), 7},
      {MakePattern(db, "ABC"), 5},
      {MakePattern(db, "BD"), 4},
  });
  PatternTable maximal = FilterMaximal(records);
  auto set = testing::AsSet(db, maximal);
  EXPECT_FALSE(set.count({"AB", 7}));  // sub-pattern of ABC
  EXPECT_TRUE(set.count({"ABC", 5}));
  EXPECT_TRUE(set.count({"BD", 4}));  // not a subsequence of ABC
}

TEST(FilterMaximal, SupportIgnored) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCD"});
  // Different supports: maximality in the case study is support-agnostic.
  PatternTable records = testing::MakeTable({
      {MakePattern(db, "AB"), 100},
      {MakePattern(db, "ACB"), 1},
  });
  PatternTable maximal = FilterMaximal(records);
  EXPECT_EQ(maximal.size(), 1u);
  EXPECT_EQ(maximal[0].pattern(), MakePattern(db, "ACB"));
}

TEST(FilterMaximal, IdenticalLengthIncomparable) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCD"});
  PatternTable records = testing::MakeTable({
      {MakePattern(db, "AB"), 3},
      {MakePattern(db, "CD"), 3},
  });
  EXPECT_EQ(FilterMaximal(records).size(), 2u);
}

TEST(RankByLength, LongestFirstTiesBySupport) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCD"});
  PatternTable records = testing::MakeTable({
      {MakePattern(db, "AB"), 3},
      {MakePattern(db, "ABCD"), 1},
      {MakePattern(db, "CD"), 9},
  });
  PatternTable ranked = RankByLength(records);
  EXPECT_EQ(ranked[0].pattern(), MakePattern(db, "ABCD"));
  EXPECT_EQ(ranked[1].pattern(), MakePattern(db, "CD"));  // support 9 > 3
  EXPECT_EQ(ranked[2].pattern(), MakePattern(db, "AB"));
}

TEST(CaseStudyPipeline, AppliesAllThreeSteps) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCD"});
  PatternTable records = testing::MakeTable({
      {MakePattern(db, "AAAA"), 9},   // killed by density
      {MakePattern(db, "AB"), 7},     // killed by maximality (sub of ABCD)
      {MakePattern(db, "ABCD"), 2},
      {MakePattern(db, "BC"), 5},     // sub of ABCD: killed
      {MakePattern(db, "DA"), 4},     // survives
  });
  PatternTable out = CaseStudyPipeline(records);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].pattern(), MakePattern(db, "ABCD"));  // longest first
  EXPECT_EQ(out[1].pattern(), MakePattern(db, "DA"));
}

TEST(CaseStudyPipeline, EmptyInput) {
  EXPECT_TRUE(CaseStudyPipeline({}).empty());
}

TEST(FilterByAnnotationFloor, SelectsOnSinkComputedValues) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCD"});
  SemanticsAnnotations high, low;
  high.values.push_back({SemanticsMeasure::kIterative, 5});
  low.values.push_back({SemanticsMeasure::kIterative, 1});
  PatternTable records = testing::MakeTable({
      {MakePattern(db, "AB"), 3, high},
      {MakePattern(db, "CD"), 9, low},
      // Mined without the measure: dropped, never recomputed from the db.
      {MakePattern(db, "BC"), 7},
  });
  PatternTable kept =
      FilterByAnnotationFloor(records, SemanticsMeasure::kIterative, 2);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].pattern(), MakePattern(db, "AB"));
  // Floor 0 still requires the annotation to exist.
  EXPECT_EQ(
      FilterByAnnotationFloor(records, SemanticsMeasure::kIterative, 0).size(),
      2u);
  EXPECT_TRUE(FilterByAnnotationFloor(records,
                                      SemanticsMeasure::kFixedWindow, 1)
                  .empty());
}

TEST(Filters, PreserveAnnotationBlocks) {
  // Every filter is a record consumer: blocks must ride through untouched.
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCD"});
  SemanticsAnnotations ann;
  ann.values.push_back({SemanticsMeasure::kSequenceCount, 2});
  PatternTable records = testing::MakeTable({{MakePattern(db, "ABC"), 5, ann},
                                        {MakePattern(db, "DA"), 4, ann}});
  for (const PatternRow r : FilterByDensity(records, 0.4)) {
    EXPECT_EQ(r.annotation_block(), ann);
  }
  for (const PatternRow r : FilterMaximal(records)) {
    EXPECT_EQ(r.annotation_block(), ann);
  }
  for (const PatternRow r : RankByLength(records)) {
    EXPECT_EQ(r.annotation_block(), ann);
  }
  for (const PatternRow r : CaseStudyPipeline(records)) {
    EXPECT_EQ(r.annotation_block(), ann);
  }
}

}  // namespace
}  // namespace gsgrow
