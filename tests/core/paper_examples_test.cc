// Every worked example in the paper, encoded exactly.
//
// The paper uses 1-based positions; helpers PaperInstance/PaperTriple
// convert. Databases:
//   Example 1.1 (Fig. 1):  S1 = AABCDABB, S2 = ABCD
//   Table II:              S1 = ABCABCA,  S2 = AABBCCC
//   Table III:             S1 = ABCACBDD B -> "ABCACBDDB", S2 = "ACDBACADD"

#include <algorithm>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/gsgrow.h"
#include "core/instance_growth.h"
#include "core/inverted_index.h"
#include "core/reference.h"
#include "core/sequence_database.h"
#include "semantics/sequence_count_support.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using testing::AsSet;
using testing::MakePattern;
using testing::PaperInstance;
using testing::PaperTriple;

class Example11Db : public ::testing::Test {
 protected:
  SequenceDatabase db_ = MakeDatabaseFromStrings({"AABCDABB", "ABCD"});
  InvertedIndex index_{db_};
};

TEST_F(Example11Db, SupportOfABIsFour) {
  EXPECT_EQ(ComputeSupport(index_, MakePattern(db_, "AB")), 4u);
}

TEST_F(Example11Db, SupportOfCDIsTwo) {
  EXPECT_EQ(ComputeSupport(index_, MakePattern(db_, "CD")), 2u);
}

TEST_F(Example11Db, ABRepeatsThreeTimesWithinS1) {
  std::vector<uint32_t> per_seq =
      PerSequenceSupport(index_, MakePattern(db_, "AB"));
  EXPECT_EQ(per_seq[0], 3u);
  EXPECT_EQ(per_seq[1], 1u);
}

// Section I, "a larger example": 50 copies of CABABABABABD and 50 copies of
// ABCD give sup(AB) = 5*50 + 50 = 300 and sup(CD) = 100, while the classic
// sequence count sees both in all 100 sequences.
TEST(IntroLargerExample, RepetitiveSupportDifferentiatesABFromCD) {
  std::vector<std::string> rows;
  for (int i = 0; i < 50; ++i) rows.push_back("CABABABABABD");
  for (int i = 0; i < 50; ++i) rows.push_back("ABCD");
  SequenceDatabase db = MakeDatabaseFromStrings(rows);
  InvertedIndex index(db);
  EXPECT_EQ(ComputeSupport(index, MakePattern(db, "AB")), 300u);
  EXPECT_EQ(ComputeSupport(index, MakePattern(db, "CD")), 100u);
  EXPECT_EQ(SequenceCount(db, MakePattern(db, "AB")), 100u);
  EXPECT_EQ(SequenceCount(db, MakePattern(db, "CD")), 100u);
}

class TableIIDb : public ::testing::Test {
 protected:
  SequenceDatabase db_ = MakeDatabaseFromStrings({"ABCABCA", "AABBCCC"});
  InvertedIndex index_{db_};
};

// Example 2.1: AB has 3 landmarks in S1 and 4 in S2.
TEST_F(TableIIDb, LandmarkCountsOfAB) {
  Pattern ab = MakePattern(db_, "AB");
  EXPECT_EQ(EnumerateLandmarks(db_[0], ab).size(), 3u);
  EXPECT_EQ(EnumerateLandmarks(db_[1], ab).size(), 4u);
}

// Example 2.1 lists three instances of ABA in S1 ((1,<1,2,4>), (1,<1,2,7>),
// (1,<4,5,7>)); exhaustive enumeration finds a fourth valid landmark,
// (1,<1,5,7>), which the paper's listing omits. Either way ABA has no
// instance in S2 and sup(ABA) = 2 (checked elsewhere).
TEST_F(TableIIDb, LandmarkCountsOfABA) {
  Pattern aba = MakePattern(db_, "ABA");
  auto landmarks = EnumerateLandmarks(db_[0], aba);
  EXPECT_EQ(landmarks.size(), 4u);
  // The paper's three instances are among them (0-based positions).
  auto contains = [&](std::vector<Position> lm) {
    return std::find(landmarks.begin(), landmarks.end(), lm) !=
           landmarks.end();
  };
  EXPECT_TRUE(contains({0, 1, 3}));
  EXPECT_TRUE(contains({0, 1, 6}));
  EXPECT_TRUE(contains({3, 4, 6}));
  EXPECT_EQ(EnumerateLandmarks(db_[1], aba).size(), 0u);
}

// Example 2.2: sup(AB) = 4 with support set
// {(1,<1,2>), (1,<4,5>), (2,<1,3>), (2,<2,4>)}.
TEST_F(TableIIDb, SupportAndLeftmostSupportSetOfAB) {
  Pattern ab = MakePattern(db_, "AB");
  EXPECT_EQ(ComputeSupport(index_, ab), 4u);
  std::vector<FullInstance> set = ComputeFullSupportSet(index_, ab);
  std::vector<FullInstance> expected = {
      PaperInstance(1, {1, 2}), PaperInstance(1, {4, 5}),
      PaperInstance(2, {1, 3}), PaperInstance(2, {2, 4})};
  EXPECT_EQ(set, expected);
}

// Example 2.2: sup(ABA) = 2; instances (1,<1,2,4>) and (1,<4,5,7>) are
// non-overlapping even though l3 = l'1 = 4 (different pattern indices).
TEST_F(TableIIDb, SupportOfABAAllowsSharedPositionAcrossIndices) {
  Pattern aba = MakePattern(db_, "ABA");
  EXPECT_EQ(ComputeSupport(index_, aba), 2u);
  std::vector<FullInstance> set = ComputeFullSupportSet(index_, aba);
  std::vector<FullInstance> expected = {PaperInstance(1, {1, 2, 4}),
                                        PaperInstance(1, {4, 5, 7})};
  EXPECT_EQ(set, expected);
}

// Example 2.3: sup(ABC) = 4 with support set {(1,<1,2,3>), (1,<4,5,6>),
// (2,<1,3,5>), (2,<2,4,6>)}; hence AB is not closed.
TEST_F(TableIIDb, ABCHasSameSupportAsAB) {
  Pattern abc = MakePattern(db_, "ABC");
  EXPECT_EQ(ComputeSupport(index_, abc), 4u);
  std::vector<FullInstance> set = ComputeFullSupportSet(index_, abc);
  std::vector<FullInstance> expected = {
      PaperInstance(1, {1, 2, 3}), PaperInstance(1, {4, 5, 6}),
      PaperInstance(2, {1, 3, 5}), PaperInstance(2, {2, 4, 6})};
  EXPECT_EQ(set, expected);
}

TEST_F(TableIIDb, ABIsSuppressedByClosedMiner) {
  MinerOptions options;
  options.min_support = 4;
  MiningResult closed = MineClosedFrequent(db_, options);
  auto set = AsSet(db_, closed.patterns);
  EXPECT_FALSE(set.count({"AB", 4}));
  EXPECT_TRUE(set.count({"ABC", 4}));
}

class TableIIIDb : public ::testing::Test {
 protected:
  SequenceDatabase db_ = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  InvertedIndex index_{db_};
};

// Table IV, column 1: support set of A = all 5 occurrences.
TEST_F(TableIIIDb, InstanceGrowthStepA) {
  SupportSet set = ComputeSupportSet(index_, MakePattern(db_, "A"));
  SupportSet expected = {PaperTriple(1, 1, 1), PaperTriple(1, 4, 4),
                         PaperTriple(2, 1, 1), PaperTriple(2, 5, 5),
                         PaperTriple(2, 7, 7)};
  EXPECT_EQ(set, expected);
}

// Table IV, column 2: growing A to AC extends in right-shift order and
// stops at (2,<7>) (no 'C' left).
TEST_F(TableIIIDb, InstanceGrowthStepAC) {
  std::vector<FullInstance> set =
      ComputeFullSupportSet(index_, MakePattern(db_, "AC"));
  std::vector<FullInstance> expected = {
      PaperInstance(1, {1, 3}), PaperInstance(1, {4, 5}),
      PaperInstance(2, {1, 2}), PaperInstance(2, {5, 6})};
  EXPECT_EQ(set, expected);
  EXPECT_EQ(ComputeSupport(index_, MakePattern(db_, "AC")), 4u);
}

// Table IV, column 3: growing AC to ACB; (1,<4,5>) must extend to
// (1,<4,5,9>) because e6 is consumed by (1,<1,3,6>); (2,<5,6>) dies.
TEST_F(TableIIIDb, InstanceGrowthStepACB) {
  std::vector<FullInstance> set =
      ComputeFullSupportSet(index_, MakePattern(db_, "ACB"));
  std::vector<FullInstance> expected = {PaperInstance(1, {1, 3, 6}),
                                        PaperInstance(1, {4, 5, 9}),
                                        PaperInstance(2, {1, 2, 4})};
  EXPECT_EQ(set, expected);
  EXPECT_EQ(ComputeSupport(index_, MakePattern(db_, "ACB")), 3u);
}

// Example 3.1 step 3': growing AC with A gives ACA; (2,<1,2,5>) and
// (2,<5,6,7>) are non-overlapping (e5='A' used at different indices).
TEST_F(TableIIIDb, InstanceGrowthStepACA) {
  std::vector<FullInstance> set =
      ComputeFullSupportSet(index_, MakePattern(db_, "ACA"));
  std::vector<FullInstance> expected = {PaperInstance(1, {1, 3, 4}),
                                        PaperInstance(2, {1, 2, 5}),
                                        PaperInstance(2, {5, 6, 7})};
  EXPECT_EQ(set, expected);
  EXPECT_EQ(ComputeSupport(index_, MakePattern(db_, "ACA")), 3u);
}

// Example 3.2: the leftmost support set of AB is
// {(1,<1,2>), (1,<4,6>), (2,<1,4>)} (not (1,<4,9>)).
TEST_F(TableIIIDb, LeftmostSupportSetOfAB) {
  std::vector<FullInstance> set =
      ComputeFullSupportSet(index_, MakePattern(db_, "AB"));
  std::vector<FullInstance> expected = {PaperInstance(1, {1, 2}),
                                        PaperInstance(1, {4, 6}),
                                        PaperInstance(2, {1, 4})};
  EXPECT_EQ(set, expected);
}

// Example 3.4: sup(AAA) = 1, pruned at min_sup = 3.
TEST_F(TableIIIDb, SupportOfAAA) {
  EXPECT_EQ(ComputeSupport(index_, MakePattern(db_, "AAA")), 1u);
}

// Example 3.5: AB is frequent (sup 3) but non-closed: the extension ACB has
// equal support. Still, ABD (sup 3) is closed with AB as prefix, so the AB
// subtree must not be pruned.
TEST_F(TableIIIDb, ABNonClosedButABDClosed) {
  MinerOptions options;
  options.min_support = 3;
  MiningResult closed = MineClosedFrequent(db_, options);
  auto set = AsSet(db_, closed.patterns);
  EXPECT_EQ(ComputeSupport(index_, MakePattern(db_, "AB")), 3u);
  EXPECT_FALSE(set.count({"AB", 3}));
  EXPECT_TRUE(set.count({"ABD", 3}));
  EXPECT_TRUE(set.count({"ACB", 3}));
}

// Example 3.6: sup(AA) = 3 with leftmost support set {(1,<1,4>), (2,<1,5>),
// (2,<5,7>)}; ACA is an equal-support extension whose leftmost support set
// does not shift the borders right, so LBCheck prunes the AA subtree: no
// closed pattern has AA as prefix (e.g. AAD is not closed since
// sup(ACAD) = 3 = sup(AAD)).
TEST_F(TableIIIDb, Example36LandmarkBorderData) {
  std::vector<FullInstance> aa =
      ComputeFullSupportSet(index_, MakePattern(db_, "AA"));
  std::vector<FullInstance> expected_aa = {PaperInstance(1, {1, 4}),
                                           PaperInstance(2, {1, 5}),
                                           PaperInstance(2, {5, 7})};
  EXPECT_EQ(aa, expected_aa);

  std::vector<FullInstance> aad =
      ComputeFullSupportSet(index_, MakePattern(db_, "AAD"));
  std::vector<FullInstance> expected_aad = {PaperInstance(1, {1, 4, 7}),
                                            PaperInstance(2, {1, 5, 8}),
                                            PaperInstance(2, {5, 7, 9})};
  EXPECT_EQ(aad, expected_aad);

  EXPECT_EQ(ComputeSupport(index_, MakePattern(db_, "ACAD")), 3u);
}

TEST_F(TableIIIDb, NoClosedPatternHasAAPrefix) {
  MinerOptions options;
  options.min_support = 3;
  MiningResult closed = MineClosedFrequent(db_, options);
  for (const PatternRow r : closed.patterns) {
    std::string s = r.pattern().ToCompactString(db_.dictionary());
    EXPECT_FALSE(s.rfind("AA", 0) == 0) << "closed pattern with AA prefix: "
                                        << s;
  }
  EXPECT_GT(closed.stats.lb_pruned_subtrees, 0u);
}

// Example 3.6 continued: ACAD is closed (it has support 3 and no equal
// support extension) and must appear in the closed result.
TEST_F(TableIIIDb, ACADIsClosed) {
  MinerOptions options;
  options.min_support = 3;
  MiningResult closed = MineClosedFrequent(db_, options);
  auto set = AsSet(db_, closed.patterns);
  EXPECT_TRUE(set.count({"ACAD", 3}));
  // ACA itself is non-closed: sup(ACAD) == sup(ACA) == 3.
  EXPECT_FALSE(set.count({"ACA", 3}));
}

// Cross-check the full mining output of the running-example database against
// the independent flow-based reference.
TEST_F(TableIIIDb, AllMinersAgreeWithReferenceAtMinSup3) {
  MinerOptions options;
  options.min_support = 3;
  MiningResult all = MineAllFrequent(db_, options);
  PatternTable ref = ReferenceMineAll(db_, 3);
  EXPECT_EQ(AsSet(db_, all.patterns), AsSet(db_, ref));
  EXPECT_EQ(all.patterns.size(), 23u);

  MiningResult closed = MineClosedFrequent(db_, options);
  EXPECT_EQ(AsSet(db_, closed.patterns), AsSet(db_, FilterClosed(ref)));
  EXPECT_EQ(closed.patterns.size(), 7u);
}

}  // namespace
}  // namespace gsgrow
