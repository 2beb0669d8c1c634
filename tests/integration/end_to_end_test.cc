// End-to-end pipelines across modules: generate -> serialize -> parse ->
// index -> mine -> post-process -> per-sequence feature values.

#include <cstdio>
#include <filesystem>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/gsgrow.h"
#include "core/instance_growth.h"
#include "core/topk.h"
#include "datagen/models.h"
#include "datagen/quest_generator.h"
#include "io/spmf_format.h"
#include "io/text_format.h"
#include "postprocess/filters.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using testing::AsSet;

TEST(EndToEnd, GenerateSerializeReloadMine) {
  QuestParams params;
  params.num_sequences = 100;
  params.avg_sequence_length = 15;
  params.num_events = 40;
  params.avg_pattern_length = 5;
  params.num_potential_patterns = 20;
  params.seed = 1234;
  SequenceDatabase original = GenerateQuest(params);

  // Round-trip through the text format.
  std::string path = (std::filesystem::temp_directory_path() /
                      "gsgrow_e2e_quest.txt")
                         .string();
  ASSERT_TRUE(WriteTextDatabaseFile(original, path).ok());
  Result<SequenceDatabase> reloaded = ReadTextDatabaseFile(path);
  ASSERT_TRUE(reloaded.ok());
  std::remove(path.c_str());

  // Mining results must be identical on the original and the reloaded
  // database (event ids may differ; compare by name via AsSet).
  MinerOptions options;
  options.min_support = 25;
  EXPECT_EQ(AsSet(original, MineClosedFrequent(original, options).patterns),
            AsSet(*reloaded, MineClosedFrequent(*reloaded, options).patterns));
}

TEST(EndToEnd, SpmfRoundTripPreservesMiningResults) {
  QuestParams params;
  params.num_sequences = 60;
  params.avg_sequence_length = 12;
  params.num_events = 30;
  params.avg_pattern_length = 4;
  params.seed = 77;
  SequenceDatabase original = GenerateQuest(params);
  Result<SequenceDatabase> reloaded =
      ParseSpmfDatabase(WriteSpmfDatabase(original));
  ASSERT_TRUE(reloaded.ok());
  MinerOptions options;
  options.min_support = 15;
  MiningResult a = MineAllFrequent(original, options);
  MiningResult b = MineAllFrequent(*reloaded, options);
  // SPMF keeps raw ids, so pattern sets match exactly by id.
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (size_t i = 0; i < a.patterns.size(); ++i) {
    EXPECT_EQ(a.patterns[i].pattern(), b.patterns[i].pattern());
    EXPECT_EQ(a.patterns[i].support, b.patterns[i].support);
  }
}

TEST(EndToEnd, TraceMiningPipeline) {
  SequenceDatabase db = GenerateJBossTraces(16, 5);
  MinerOptions options;
  options.min_support = 12;
  options.max_pattern_length = 6;
  options.time_budget_seconds = 20.0;
  MiningResult closed = MineClosedFrequent(db, options);
  ASSERT_FALSE(closed.patterns.empty());

  PatternTable report = CaseStudyPipeline(closed.patterns);
  ASSERT_FALSE(report.empty());
  // Ranking: lengths non-increasing.
  for (size_t i = 1; i < report.size(); ++i) {
    EXPECT_LE(report[i].events.size(), report[i - 1].events.size());
  }
  // Density filter respected.
  for (const PatternRow r : report) {
    EXPECT_GT(PatternDensity(r.events), 0.4);
  }
  // Maximality: no report pattern is a sub-pattern of another.
  for (size_t i = 0; i < report.size(); ++i) {
    for (size_t j = 0; j < report.size(); ++j) {
      if (i == j) continue;
      if (report[i].events.size() < report[j].events.size()) {
        EXPECT_FALSE(IsSubsequence(report[i].events, report[j].events));
      }
    }
  }
}

TEST(EndToEnd, FeaturePipelineOnMinedPatterns) {
  SequenceDatabase db = GenerateTcasTraces(60, 3);
  MinerOptions topk;
  topk.k = 8;
  topk.min_length = 2;
  topk.max_pattern_length = 4;
  topk.time_budget_seconds = 20.0;
  PatternTable top = MineTopKClosed(db, topk);
  ASSERT_FALSE(top.empty());

  // The paper's per-sequence feature values (§V) of each top-K pattern sum
  // to its total repetitive support.
  InvertedIndex index(db);
  for (const PatternRow r : top) {
    std::vector<uint32_t> features = PerSequenceSupport(index, r.pattern());
    ASSERT_EQ(features.size(), db.size());
    uint64_t total = 0;
    for (uint32_t value : features) total += value;
    EXPECT_EQ(total, r.support);
  }
}

TEST(EndToEnd, ClosedIsAlwaysSubsetOfAllAcrossGenerators) {
  std::vector<SequenceDatabase> corpora;
  corpora.push_back(GenerateJBossTraces(8, 2));
  corpora.push_back(GenerateTcasTraces(30, 2));
  {
    QuestParams params;
    params.num_sequences = 50;
    params.avg_sequence_length = 10;
    params.num_events = 20;
    params.avg_pattern_length = 4;
    corpora.push_back(GenerateQuest(params));
  }
  size_t compared = 0;
  for (const SequenceDatabase& db : corpora) {
    MinerOptions options;
    options.min_support = std::max<uint64_t>(2, db.size() / 2);
    options.max_pattern_length = 5;
    options.time_budget_seconds = 15.0;
    MiningResult all_result = MineAllFrequent(db, options);
    MiningResult closed_result = MineClosedFrequent(db, options);
    // A truncated run yields a DFS-order prefix, and "closed subset of all"
    // only holds between complete outputs (slow sanitizer builds can trip
    // the budget). Skip the corpus rather than compare prefixes.
    if (all_result.stats.truncated || closed_result.stats.truncated) continue;
    auto all = AsSet(db, all_result.patterns);
    auto closed = AsSet(db, closed_result.patterns);
    for (const auto& p : closed) {
      EXPECT_TRUE(all.count(p)) << p.first;
    }
    compared++;
  }
  // At least one corpus must be small enough to finish within budget.
  EXPECT_GT(compared, 0u);
}

}  // namespace
}  // namespace gsgrow
