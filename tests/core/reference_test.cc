#include "core/reference.h"

#include "gtest/gtest.h"

#include "core/sequence_database.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using testing::MakePattern;

TEST(EnumerateLandmarks, CountsAllEmbeddings) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AABB"});
  EXPECT_EQ(EnumerateLandmarks(db[0], MakePattern(db, "AB")).size(), 4u);
  EXPECT_EQ(EnumerateLandmarks(db[0], MakePattern(db, "AA")).size(), 1u);
  EXPECT_EQ(EnumerateLandmarks(db[0], MakePattern(db, "BA")).size(), 0u);
}

TEST(EnumerateLandmarks, LandmarksAreStrictlyIncreasing) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABABAB"});
  for (const auto& lm :
       EnumerateLandmarks(db[0], MakePattern(db, "ABA"))) {
    for (size_t j = 1; j < lm.size(); ++j) EXPECT_LT(lm[j - 1], lm[j]);
  }
}

TEST(EnumerateLandmarks, RespectsLimit) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AAAAAAAAAA"});
  auto landmarks = EnumerateLandmarks(db[0], MakePattern(db, "AAA"), 5);
  EXPECT_EQ(landmarks.size(), 5u);
}

TEST(EnumerateLandmarks, EmptyPattern) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB"});
  EXPECT_TRUE(EnumerateLandmarks(db[0], Pattern()).empty());
}

TEST(ReferenceSequenceSupport, SimpleCases) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB"});
  EXPECT_EQ(ReferenceSequenceSupport(db[0], MakePattern(db, "AB")), 2u);
  EXPECT_EQ(ReferenceSequenceSupport(db[0], MakePattern(db, "A")), 2u);
  EXPECT_EQ(ReferenceSequenceSupport(db[0], MakePattern(db, "ABAB")), 1u);
  EXPECT_EQ(ReferenceSequenceSupport(db[0], MakePattern(db, "BA")), 1u);
}

TEST(ReferenceSequenceSupport, SharedPositionAcrossIndicesAllowed) {
  // Paper Example 2.1: sup(ABA) in ABCABCA is 2 even though position 4
  // serves as the last 'A' of one instance and the first 'A' of the other.
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCABCA"});
  EXPECT_EQ(ReferenceSequenceSupport(db[0], MakePattern(db, "ABA")), 2u);
}

TEST(ReferenceSequenceSupport, AbsentEvent) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AAA", "B"});
  EXPECT_EQ(ReferenceSequenceSupport(db[0], MakePattern(db, "AB")), 0u);
}

TEST(ReferenceSupport, SumsOverSequences) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB", "AB", "ABAB"});
  EXPECT_EQ(ReferenceSupport(db, MakePattern(db, "AB")), 4u);
}

TEST(ReferenceSupport, PaperExampleValues) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AABCDABB", "ABCD"});
  EXPECT_EQ(ReferenceSupport(db, MakePattern(db, "AB")), 4u);
  EXPECT_EQ(ReferenceSupport(db, MakePattern(db, "CD")), 2u);
}

TEST(ReferenceMineAll, TinyDatabase) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB"});
  PatternTable all = ReferenceMineAll(db, 2);
  auto set = testing::AsSet(db, all);
  std::set<std::pair<std::string, uint64_t>> expected = {
      {"A", 2}, {"B", 2}, {"AB", 2}};
  EXPECT_EQ(set, expected);
}

TEST(ReferenceMineAll, RespectsMaxLength) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCABCABC"});
  for (const PatternRow r : ReferenceMineAll(db, 1, 3)) {
    EXPECT_LE(r.events.size(), 3u);
  }
}

TEST(FilterClosed, DropsNonClosedOnly) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCABC", "ABC"});
  PatternTable all = ReferenceMineAll(db, 3);
  PatternTable closed = FilterClosed(all);
  auto closed_set = testing::AsSet(db, closed);
  // sup(A)=sup(AB)=sup(ABC)=3: only ABC survives.
  EXPECT_FALSE(closed_set.count({"A", 3}));
  EXPECT_FALSE(closed_set.count({"AB", 3}));
  EXPECT_TRUE(closed_set.count({"ABC", 3}));
}

TEST(FilterClosed, KeepsPatternsWithUniqueSupport) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AABC"});
  PatternTable all = ReferenceMineAll(db, 1);
  auto closed_set = testing::AsSet(db, FilterClosed(all));
  EXPECT_TRUE(closed_set.count({"A", 2}));   // sup(A)=2 > any super-pattern
  EXPECT_TRUE(closed_set.count({"AABC", 1}));
}

TEST(FilterClosed, EmptyInput) {
  EXPECT_TRUE(FilterClosed({}).empty());
}

}  // namespace
}  // namespace gsgrow
