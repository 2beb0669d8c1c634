// PatternTable: the flat answer representation (DESIGN.md §6/§7), and the
// ordering contract it rests on — every collected answer is in canonical
// order with no sort run, identical at any thread count, and a
// single-threaded max_patterns cut is a canonical prefix.

#include "core/pattern_table.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/gap_constrained.h"
#include "core/growth_engine.h"
#include "core/gsgrow.h"
#include "core/inverted_index.h"
#include "datagen/models.h"
#include "datagen/quest_generator.h"
#include "io/pattern_io.h"
#include "test_util.h"

namespace gsgrow {
namespace {

SemanticsAnnotations Block(uint64_t sequence_count, uint64_t iterative) {
  SemanticsAnnotations block;
  block.values.push_back({SemanticsMeasure::kSequenceCount, sequence_count});
  block.values.push_back({SemanticsMeasure::kIterative, iterative});
  return block;
}

TEST(PatternTable, AppendAndRowViews) {
  PatternTable table;
  EXPECT_TRUE(table.empty());
  table.Append(std::vector<EventId>{3, 1, 4}, 9);
  table.Append(std::vector<EventId>{1}, 5);
  table.Append(std::vector<EventId>{}, 0);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table.total_events(), 4u);
  EXPECT_EQ(std::vector<EventId>(table.events(0).begin(),
                                 table.events(0).end()),
            (std::vector<EventId>{3, 1, 4}));
  EXPECT_EQ(table[1].pattern(), Pattern({1}));
  EXPECT_TRUE(table[2].events.empty());
  EXPECT_EQ(table.support(0), 9u);
  EXPECT_EQ(table[1].support, 5u);
  size_t rows = 0;
  for (const PatternRow row : table) {
    EXPECT_TRUE(row.annotations.empty());
    ++rows;
  }
  EXPECT_EQ(rows, 3u);
}

TEST(PatternTable, AnnotationColumnOnlyWithASelection) {
  PatternTable plain;
  plain.Append(std::vector<EventId>{0, 1}, 4);
  EXPECT_FALSE(plain.annotated());
  EXPECT_EQ(plain.total_annotations(), 0u);

  PatternTable annotated;
  annotated.Append(std::vector<EventId>{0}, 7);  // before the column exists
  annotated.Append(std::vector<EventId>{0, 1}, 4, Block(2, 3));
  ASSERT_TRUE(annotated.annotated());
  EXPECT_TRUE(annotated[0].annotations.empty());
  EXPECT_EQ(annotated[1].annotation_block(), Block(2, 3));
  uint64_t value = 0;
  ASSERT_TRUE(FindAnnotation(annotated[1].annotations,
                             SemanticsMeasure::kIterative, &value));
  EXPECT_EQ(value, 3u);

  // Mining with no selection builds no column; with one, every row has it.
  const SequenceDatabase db =
      MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  MinerOptions options;
  options.min_support = 2;
  EXPECT_FALSE(MineClosedFrequent(db, options).patterns.annotated());
  options.semantics.sequence_count = true;
  const PatternTable mined = MineClosedFrequent(db, options).patterns;
  ASSERT_TRUE(mined.annotated());
  for (const PatternRow row : mined) EXPECT_EQ(row.annotations.size(), 1u);
}

TEST(PatternTable, EqualityComparesRowsNotChunks) {
  PatternTable a;
  a.BeginChunk(0);
  a.Append(std::vector<EventId>{0, 1}, 4);
  PatternTable b;
  b.Append(std::vector<EventId>{0, 1}, 4);
  EXPECT_EQ(a, b);
  PatternTable c;
  c.Append(std::vector<EventId>{0, 1}, 5);
  EXPECT_NE(a, c);
  PatternTable d;
  d.Append(std::vector<EventId>{0}, 4);
  d.Append(std::vector<EventId>{1}, 4);
  EXPECT_NE(b, d);  // same events and supports, different row split
  PatternTable e;
  e.Append(std::vector<EventId>{0, 1}, 4, Block(1, 1));
  EXPECT_NE(b, e);
}

TEST(PatternTable, CommitChunksCopiesUnitsInOrder) {
  // Worker 0 claimed units 0 and 3, worker 1 units 1 and 2 (2 emitted
  // nothing), worker 2 nothing at all.
  PatternTable w0;
  w0.BeginChunk(0);
  w0.Append(std::vector<EventId>{0}, 9, Block(1, 1));
  w0.Append(std::vector<EventId>{0, 2}, 8, Block(1, 2));
  w0.BeginChunk(3);
  w0.Append(std::vector<EventId>{3}, 5, Block(3, 3));
  PatternTable w1;
  w1.BeginChunk(1);
  w1.Append(std::vector<EventId>{1}, 7, Block(2, 1));
  w1.BeginChunk(2);
  PatternTable w2;

  std::vector<PatternTable> shards;
  shards.push_back(std::move(w0));
  shards.push_back(std::move(w1));
  shards.push_back(std::move(w2));
  const PatternTable merged = CommitChunks(std::move(shards));

  PatternTable expected;
  expected.Append(std::vector<EventId>{0}, 9, Block(1, 1));
  expected.Append(std::vector<EventId>{0, 2}, 8, Block(1, 2));
  expected.Append(std::vector<EventId>{1}, 7, Block(2, 1));
  expected.Append(std::vector<EventId>{3}, 5, Block(3, 3));
  EXPECT_EQ(merged, expected);

  // One shard is returned as it stands.
  PatternTable single;
  single.BeginChunk(4);
  single.Append(std::vector<EventId>{4}, 2);
  std::vector<PatternTable> one;
  one.push_back(single);
  EXPECT_EQ(CommitChunks(std::move(one)), single);
}

// --- The ordering contract behind the sort-free commit. ---

SequenceDatabase Quest(uint64_t seed) {
  QuestParams params;
  params.num_sequences = 40;
  params.avg_sequence_length = 14;
  params.num_events = 10;
  params.avg_pattern_length = 4;
  params.num_potential_patterns = 10;
  params.seed = seed;
  return GenerateQuest(params);
}

struct Corpus {
  std::string name;
  SequenceDatabase db;
  uint64_t min_support;
};

std::vector<Corpus> Corpora() {
  std::vector<Corpus> corpora;
  corpora.push_back({"quest-1", Quest(1), 8});
  corpora.push_back({"quest-2", Quest(2), 8});
  corpora.push_back({"jboss-like", GenerateJBossTraces(6, 3), 5});
  return corpora;
}

void ExpectStrictlyCanonical(const PatternTable& table,
                             const std::string& label) {
  for (size_t i = 1; i < table.size(); ++i) {
    ASSERT_TRUE(testing::CanonicalRowLess(table[i - 1], table[i]))
        << label << " row " << i;
  }
}

TEST(PatternTableOrder, AnswersAreCanonicalAndThreadInvariant) {
  for (const Corpus& corpus : Corpora()) {
    const InvertedIndex index(corpus.db);
    MinerOptions options;
    options.min_support = corpus.min_support;
    options.max_pattern_length = 5;
    const LandmarkGapConstraint gap{0, 2};
    const auto mine = [&](int miner, size_t threads) {
      MinerOptions run = options;
      run.num_threads = threads;
      switch (miner) {
        case 0: return MineAllFrequent(index, run).patterns;
        case 1: return MineClosedFrequent(index, run).patterns;
        default:
          return MineAllFrequentGapConstrained(index, run, gap).patterns;
      }
    };
    for (int miner = 0; miner < 3; ++miner) {
      const std::string label =
          corpus.name + " miner=" + std::to_string(miner);
      const PatternTable one = mine(miner, 1);
      ASSERT_FALSE(one.empty()) << label;
      ExpectStrictlyCanonical(one, label);
      const std::string text = WritePatterns(one, corpus.db.dictionary());
      for (size_t threads : {2u, 4u}) {
        const PatternTable many = mine(miner, threads);
        EXPECT_EQ(many, one) << label << " threads=" << threads;
        EXPECT_EQ(WritePatterns(many, corpus.db.dictionary()), text)
            << label << " threads=" << threads;
      }
    }
  }
}

// The engine's own emission order, before any merge: a worker's sink
// output is already strictly canonical, so committing needs no sort.
TEST(PatternTableOrder, SinkEmissionIsCanonicalWithoutASort) {
  for (const Corpus& corpus : Corpora()) {
    const InvertedIndex index(corpus.db);
    MinerOptions options;
    options.min_support = corpus.min_support;
    options.max_pattern_length = 5;
    ExpectStrictlyCanonical(
        GrowthEngine(UnconstrainedExtension(index), NoPruning(),
                     CollectSink(), options)
            .Run()
            .patterns,
        corpus.name + " all");
    ExpectStrictlyCanonical(
        GrowthEngine(UnconstrainedExtension(index),
                     ClosurePruning(index, options), CollectSink(), options)
            .Run()
            .patterns,
        corpus.name + " closed");
  }
}

TEST(PatternTableOrder, SingleThreadTruncationIsACanonicalPrefix) {
  for (const Corpus& corpus : Corpora()) {
    const InvertedIndex index(corpus.db);
    MinerOptions options;
    options.min_support = corpus.min_support;
    options.max_pattern_length = 5;
    options.num_threads = 1;
    const PatternTable all = MineAllFrequent(index, options).patterns;
    const PatternTable closed = MineClosedFrequent(index, options).patterns;
    for (uint64_t cap : {1u, 7u, 40u}) {
      MinerOptions capped = options;
      capped.max_patterns = cap;
      const MiningResult all_cut = MineAllFrequent(index, capped);
      const MiningResult closed_cut = MineClosedFrequent(index, capped);
      const std::string label =
          corpus.name + " cap=" + std::to_string(cap);
      if (cap < all.size()) {
        EXPECT_EQ(all_cut.stats.truncated_reason, "max_patterns") << label;
      }
      EXPECT_EQ(all_cut.patterns, testing::FirstRows(all, cap)) << label;
      EXPECT_EQ(closed_cut.patterns, testing::FirstRows(closed, cap))
          << label;
    }
  }
}

}  // namespace
}  // namespace gsgrow
