#include "core/gap_constrained.h"

#include "gtest/gtest.h"

#include "core/instance_growth.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using testing::AsSet;
using testing::MakePattern;

TEST(GapConstraint, AllowsSemantics) {
  LandmarkGapConstraint adjacent{0, 0};
  EXPECT_TRUE(adjacent.Allows(3, 4));   // gap 0
  EXPECT_FALSE(adjacent.Allows(3, 5));  // gap 1
  EXPECT_FALSE(adjacent.Allows(3, 3));  // not increasing
  LandmarkGapConstraint window{1, 2};
  EXPECT_FALSE(window.Allows(0, 1));  // gap 0 < min
  EXPECT_TRUE(window.Allows(0, 2));   // gap 1
  EXPECT_TRUE(window.Allows(0, 3));   // gap 2
  EXPECT_FALSE(window.Allows(0, 4));  // gap 3 > max
  EXPECT_TRUE(LandmarkGapConstraint{}.IsUnconstrained());
  EXPECT_FALSE(window.IsUnconstrained());
}

TEST(ExactGapConstrainedSupport, AdjacentOnly) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABXAB", "AXB"});
  LandmarkGapConstraint adjacent{0, 0};
  EXPECT_EQ(ExactGapConstrainedSupport(db, MakePattern(db, "AB"), adjacent),
            2u);  // the two adjacent ABs; AXB has gap 1
  LandmarkGapConstraint upto1{0, 1};
  EXPECT_EQ(ExactGapConstrainedSupport(db, MakePattern(db, "AB"), upto1), 3u);
}

TEST(ExactGapConstrainedSupport, UnconstrainedMatchesPlainSupport) {
  Rng rng(31337);
  for (int round = 0; round < 20; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 3, 1, 10, 3);
    InvertedIndex index(db);
    for (const char* pat : {"A", "AB", "ABA", "BAC", "CC"}) {
      Pattern p = MakePattern(db, pat);
      EXPECT_EQ(ExactGapConstrainedSupport(db, p, LandmarkGapConstraint{}),
                ComputeSupport(index, p));
    }
  }
}

TEST(ExactGapConstrainedSupport, MinGapExcludesAdjacent) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AXXB", "AB"});
  LandmarkGapConstraint at_least_two{2, 100};
  EXPECT_EQ(
      ExactGapConstrainedSupport(db, MakePattern(db, "AB"), at_least_two),
      1u);
}

TEST(GreedyGapConstrainedSupport, ExactWhenUnconstrained) {
  Rng rng(31338);
  for (int round = 0; round < 20; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 3, 1, 12, 3);
    InvertedIndex index(db);
    for (const char* pat : {"AB", "ABC", "BA"}) {
      Pattern p = MakePattern(db, pat);
      EXPECT_EQ(
          GreedyGapConstrainedSupport(index, p, LandmarkGapConstraint{}),
          ComputeSupport(index, p));
    }
  }
}

// Greedy never exceeds the exact flow value (it is a feasible construction)
// and is exact without constraints; under constraints it may fall short.
TEST(GreedyGapConstrainedSupport, LowerBoundsExactSupport) {
  Rng rng(31339);
  for (int round = 0; round < 40; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 3, 2, 10, 3);
    InvertedIndex index(db);
    for (const char* pat : {"AB", "ABC", "AAB", "BCA"}) {
      for (uint32_t max_gap : {0u, 1u, 2u}) {
        LandmarkGapConstraint gap{0, max_gap};
        Pattern p = MakePattern(db, pat);
        EXPECT_LE(GreedyGapConstrainedSupport(index, p, gap),
                  ExactGapConstrainedSupport(db, p, gap))
            << pat << " max_gap=" << max_gap << " round=" << round;
      }
    }
  }
}

// Running the oracle only on the sequences of the unconstrained leftmost
// support set loses nothing: the restricted sum equals the full one.
TEST(ExactGapConstrainedSupport, SupportSetRestrictionMatchesReference) {
  Rng rng(31341);
  for (int round = 0; round < 60; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 6, 3, 12, 4);
    InvertedIndex index(db);
    for (int trial = 0; trial < 6; ++trial) {
      const size_t length = 1 + rng.UniformInt(4);
      std::vector<EventId> events;
      for (size_t j = 0; j < length; ++j) {
        events.push_back(
            static_cast<EventId>(rng.UniformInt(db.AlphabetSize())));
      }
      const Pattern pattern(events);
      const SupportSet set = ComputeSupportSet(index, pattern);
      for (const LandmarkGapConstraint gap :
           {LandmarkGapConstraint{0, 0}, LandmarkGapConstraint{0, 2},
            LandmarkGapConstraint{1, 3}, LandmarkGapConstraint{}}) {
        EXPECT_EQ(ExactGapConstrainedSupport(index, set, pattern, gap),
                  ReferenceSupport(db, pattern, gap))
            << "round=" << round << " trial=" << trial
            << " min_gap=" << gap.min_gap << " max_gap=" << gap.max_gap;
      }
    }
  }
}

TEST(GrowSupportSetWithGaps, FailedInstanceDoesNotStopSequenceScan) {
  // A0 has no B within gap 0; A2 does. The unconstrained INSgrow "break"
  // rule would be wrong here; the constrained growth must keep scanning.
  SequenceDatabase db = MakeDatabaseFromStrings({"AXABX"});
  InvertedIndex index(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet grown = GrowSupportSetWithGaps(index, RootInstances(index, a), b,
                                            LandmarkGapConstraint{0, 0});
  ASSERT_EQ(grown.size(), 1u);
  EXPECT_EQ(grown[0], (Instance{0, 2, 3}));
}

TEST(MineAllFrequentGapConstrained, MatchesBruteForceEnumeration) {
  Rng rng(31340);
  for (int round = 0; round < 8; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 3, 2, 9, 3);
    LandmarkGapConstraint gap{0, 1};
    MinerOptions options;
    options.min_support = 2;
    options.max_pattern_length = 4;
    MiningResult mined = MineAllFrequentGapConstrained(db, options, gap);
    // Oracle: enumerate all patterns up to length 4 by BFS with exact
    // supports (prefix-Apriori growth is complete; see header).
    PatternTable expected;
    std::vector<Pattern> frontier = {Pattern()};
    for (size_t len = 0; len < 4; ++len) {
      std::vector<Pattern> next;
      for (const Pattern& p : frontier) {
        for (EventId e = 0; e < db.AlphabetSize(); ++e) {
          Pattern grown = p.Grow(e);
          uint64_t support = ExactGapConstrainedSupport(db, grown, gap);
          if (support >= 2) {
            expected.Append(grown.events(), support);
            next.push_back(std::move(grown));
          }
        }
      }
      frontier = std::move(next);
    }
    EXPECT_EQ(AsSet(db, mined.patterns), AsSet(db, expected))
        << "round=" << round;
  }
}

TEST(MineAllFrequentGapConstrained, TandemMotifOnlySurvivesTightGap) {
  // The motif AB repeats adjacently; A..B with huge gaps also exists but is
  // excluded under max_gap = 0.
  SequenceDatabase db =
      MakeDatabaseFromStrings({"ABXXABXXAB", "ABXXAB", "AXXXXB"});
  MinerOptions options;
  options.min_support = 5;
  LandmarkGapConstraint adjacent{0, 0};
  MiningResult mined = MineAllFrequentGapConstrained(db, options, adjacent);
  auto set = AsSet(db, mined.patterns);
  EXPECT_TRUE(set.count({"AB", 5}));
  // Unconstrained support of AB is 6 (AXXXXB matches too).
  InvertedIndex index(db);
  EXPECT_EQ(ComputeSupport(index, MakePattern(db, "AB")), 6u);
}

TEST(MineAllFrequentGapConstrained, BudgetTruncates) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCABCABC", "CBACBA"});
  MinerOptions options;
  options.min_support = 1;
  options.time_budget_seconds = 0.0;
  MiningResult mined =
      MineAllFrequentGapConstrained(db, options, LandmarkGapConstraint{});
  EXPECT_TRUE(mined.stats.truncated);
}

}  // namespace
}  // namespace gsgrow
