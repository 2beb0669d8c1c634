// BIDE and CloSpan must produce exactly the closure-filtered PrefixSpan
// output; this differential property is the main correctness check for both.

#include "gtest/gtest.h"

#include "baselines/bide.h"
#include "baselines/clospan.h"
#include "baselines/prefixspan.h"
#include "datagen/clickstream_generator.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using testing::AsSet;

std::set<std::pair<std::string, uint64_t>> ClosedViaPrefixSpan(
    const SequenceDatabase& db, uint64_t min_sup) {
  SequentialMinerOptions options;
  options.min_support = min_sup;
  MiningResult all = MinePrefixSpan(db, options);
  return AsSet(db, FilterClosedSequential(all.patterns));
}

TEST(Bide, TinyExactOutput) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABC", "ABC", "AB"});
  BideOptions options;
  options.min_support = 2;
  MiningResult result = MineBide(db, options);
  auto set = AsSet(db, result.patterns);
  // AB in 3 sequences (closed), ABC in 2 (closed); A, B, C, AC, BC dominated.
  std::set<std::pair<std::string, uint64_t>> expected = {{"AB", 3},
                                                         {"ABC", 2}};
  EXPECT_EQ(set, expected);
}

TEST(Bide, MatchesClosureFilteredPrefixSpan) {
  Rng rng(555);
  for (int round = 0; round < 20; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 4, 1, 10, 3);
    for (uint64_t min_sup : {1, 2, 3}) {
      BideOptions options;
      options.min_support = min_sup;
      MiningResult result = MineBide(db, options);
      EXPECT_EQ(AsSet(db, result.patterns),
                ClosedViaPrefixSpan(db, min_sup))
          << "round=" << round << " min_sup=" << min_sup;
    }
  }
}

TEST(Bide, BackScanPruningPreservesOutput) {
  Rng rng(556);
  for (int round = 0; round < 15; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 3, 1, 10, 3);
    BideOptions with_bs;
    with_bs.min_support = 2;
    with_bs.use_backscan_pruning = true;
    BideOptions without_bs = with_bs;
    without_bs.use_backscan_pruning = false;
    EXPECT_EQ(AsSet(db, MineBide(db, with_bs).patterns),
              AsSet(db, MineBide(db, without_bs).patterns))
        << "round=" << round;
  }
}

TEST(Bide, BackScanReducesSearch) {
  // Long repetitive sequences give BackScan something to prune.
  SequenceDatabase db =
      MakeDatabaseFromStrings({"ABCABCABCABC", "ABCABCABC", "BCABCA"});
  BideOptions with_bs;
  with_bs.min_support = 2;
  BideOptions without_bs = with_bs;
  without_bs.use_backscan_pruning = false;
  MiningResult a = MineBide(db, with_bs);
  MiningResult b = MineBide(db, without_bs);
  EXPECT_EQ(AsSet(db, a.patterns), AsSet(db, b.patterns));
  EXPECT_LT(a.stats.nodes_visited, b.stats.nodes_visited);
}

TEST(CloSpan, TinyExactOutput) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABC", "ABC", "AB"});
  SequentialMinerOptions options;
  options.min_support = 2;
  MiningResult result = MineCloSpan(db, options);
  auto set = AsSet(db, result.patterns);
  std::set<std::pair<std::string, uint64_t>> expected = {{"AB", 3},
                                                         {"ABC", 2}};
  EXPECT_EQ(set, expected);
}

TEST(CloSpan, MatchesClosureFilteredPrefixSpan) {
  Rng rng(557);
  for (int round = 0; round < 20; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 4, 1, 10, 3);
    for (uint64_t min_sup : {1, 2, 3}) {
      SequentialMinerOptions options;
      options.min_support = min_sup;
      MiningResult result = MineCloSpan(db, options);
      EXPECT_EQ(AsSet(db, result.patterns),
                ClosedViaPrefixSpan(db, min_sup))
          << "round=" << round << " min_sup=" << min_sup;
    }
  }
}

TEST(CloSpan, AgreesWithBide) {
  Rng rng(558);
  for (int round = 0; round < 20; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 5, 1, 9, 3);
    SequentialMinerOptions cs_options;
    cs_options.min_support = 2;
    BideOptions bide_options;
    bide_options.min_support = 2;
    EXPECT_EQ(AsSet(db, MineCloSpan(db, cs_options).patterns),
              AsSet(db, MineBide(db, bide_options).patterns))
        << "round=" << round;
  }
}

// A run cut off by its time budget must return within the budget plus a
// bounded step. On this corpus (the paper-figures bench's gazelle-like
// corpus at scale 0.05) the DFS leaves ~46K candidates at 1 s; closure
// filtering them took another ~25 s.
TEST(CloSpan, TimeBudgetBoundsTheWholeRun) {
  ClickstreamParams params;
  params.num_sessions = 1468;
  params.num_pages = 71;
  SequenceDatabase db = GenerateClickstream(params);
  SequentialMinerOptions options;
  options.min_support = 3;
  options.time_budget_seconds = 1.0;
  MiningResult result = MineCloSpan(db, options);
  EXPECT_TRUE(result.stats.truncated);
  EXPECT_LT(result.stats.elapsed_seconds, 5.0);
}

TEST(ClosedBaselines, EmptyDatabase) {
  SequenceDatabase db;
  BideOptions bide_options;
  bide_options.min_support = 1;
  EXPECT_TRUE(MineBide(db, bide_options).patterns.empty());
  SequentialMinerOptions cs_options;
  cs_options.min_support = 1;
  EXPECT_TRUE(MineCloSpan(db, cs_options).patterns.empty());
}

}  // namespace
}  // namespace gsgrow
