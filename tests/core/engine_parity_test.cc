// The refactor's safety net: the policy-based GrowthEngine must agree with
// every way of computing the same answer — the miner facades, from-scratch
// supComp (ComputeSupportSet), and each policy combination that is supposed
// to be semantically equivalent to another.

#include "core/growth_engine.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/gap_constrained.h"
#include "core/gsgrow.h"
#include "core/instance_growth.h"
#include "core/reference.h"
#include "core/topk.h"
#include "datagen/quest_generator.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using testing::AsSet;
using testing::FirstRows;
using testing::SortedRows;

// Small randomized corpora with heavy event reuse so patterns actually
// repeat (both across sequences and within one sequence).
SequenceDatabase QuestDatabase(uint64_t seed) {
  QuestParams params;
  params.num_sequences = 30;
  params.avg_sequence_length = 12;
  params.num_events = 8;
  params.avg_pattern_length = 4;
  params.num_potential_patterns = 10;
  params.seed = seed;
  return GenerateQuest(params);
}

// Runs the engine in the GSgrow configuration directly (no facade).
MiningResult RunEngineAllFrequent(const InvertedIndex& index,
                                  const MinerOptions& options) {
  UnconstrainedExtension extension(index);
  NoPruning pruning;
  return GrowthEngine(extension, pruning, CollectSink(), options).Run();
}

TEST(EngineParity, EngineEqualsGSgrowFacade) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 6;
    options.max_pattern_length = 5;
    EXPECT_EQ(AsSet(db, RunEngineAllFrequent(index, options).patterns),
              AsSet(db, MineAllFrequent(index, options).patterns))
        << "seed=" << seed;
  }
}

// "CloGSgrow with closure checks disabled" is exactly the engine with the
// closure policy swapped for NoPruning: it must emit every frequent
// pattern, i.e. the GSgrow output, and the closed output is its subset.
TEST(EngineParity, ClosureDisabledEqualsAllFrequent) {
  for (uint64_t seed : {10u, 11u, 12u, 13u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 6;
    options.max_pattern_length = 5;

    auto all = AsSet(db, RunEngineAllFrequent(index, options).patterns);

    UnconstrainedExtension extension(index);
    ClosurePruning closure(index, options);
    auto closed = AsSet(
        db,
        GrowthEngine(extension, closure, CollectSink(), options).Run().patterns);

    for (const auto& p : closed) {
      EXPECT_TRUE(all.count(p)) << "seed=" << seed << " " << p.first;
    }
    // Suppressed non-closed patterns are the only difference.
    EXPECT_LE(closed.size(), all.size());
  }
}

// Every emitted (pattern, support) pair must agree with supComp
// (Algorithm 1) run from scratch — the INSgrow-extended leftmost support
// sets the engine carries down the DFS cannot drift from the definition.
TEST(EngineParity, SupportsAgreeWithFromScratchComputeSupportSet) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 5;
    options.max_pattern_length = 5;
    MiningResult result = RunEngineAllFrequent(index, options);
    ASSERT_FALSE(result.stats.truncated);
    for (const PatternRow r : result.patterns) {
      EXPECT_EQ(ComputeSupportSet(index, r.pattern()).size(), r.support)
          << "seed=" << seed << " "
          << r.pattern().ToCompactString(db.dictionary());
    }
  }
}

// Completeness: breadth-first growth over supComp finds exactly the
// engine's pattern set (no DFS child is lost by the candidate-list or
// floor plumbing).
TEST(EngineParity, MatchesBreadthFirstEnumeration) {
  for (uint64_t seed : {31u, 32u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 8;
    options.max_pattern_length = 4;
    MiningResult result = RunEngineAllFrequent(index, options);

    PatternTable expected;
    std::vector<Pattern> frontier = {Pattern()};
    for (size_t len = 0; len < 4; ++len) {
      std::vector<Pattern> next;
      for (const Pattern& p : frontier) {
        for (EventId e = 0; e < db.AlphabetSize(); ++e) {
          Pattern grown = p.Grow(e);
          uint64_t support = ComputeSupportSet(index, grown).size();
          if (support >= options.min_support) {
            expected.Append(grown.events(), support);
            next.push_back(std::move(grown));
          }
        }
      }
      frontier = std::move(next);
    }
    EXPECT_EQ(AsSet(db, result.patterns), AsSet(db, expected))
        << "seed=" << seed;
  }
}

// The TopKSink (bounded heap + rising support floor) must select exactly
// the prefix of the full closed output under the (support desc, pattern
// asc) order it claims to implement.
TEST(EngineParity, TopKSinkEqualsSortedClosedPrefix) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 4;
    options.max_pattern_length = 5;

    UnconstrainedExtension extension(index);
    ClosurePruning closure_full(index, options);
    MiningResult closed =
        GrowthEngine(extension, closure_full, CollectSink(), options).Run();
    closed.patterns = SortedRows(closed.patterns, TopKSink::Better);

    for (size_t k : {1u, 3u, 7u}) {
      ClosurePruning closure(index, options);
      MiningResult topk =
          GrowthEngine(extension, closure, TopKSink(k, 1), options).Run();
      ASSERT_EQ(topk.patterns.size(),
                std::min(k, closed.patterns.size()));
      for (size_t i = 0; i < topk.patterns.size(); ++i) {
        EXPECT_EQ(topk.patterns[i], closed.patterns[i])
            << "seed=" << seed << " k=" << k << " i=" << i;
      }
    }
  }
}

// The closure check (lazy restricted prefixes, the insert-candidate filter,
// fused per-sequence-count early exits, cursor-based regrowth) against the
// definition: CloGSgrow's output must equal the all-frequent set filtered
// to closed patterns (Definition 2.6) with and without LBCheck. The filter
// only drops candidates that cannot reach equal support, so without
// LBCheck the closed DFS must walk exactly the all-frequent DFS and
// suppress exactly the non-closed patterns; with LBCheck every visited
// node is closure-checked.
TEST(EngineParity, ClosedMiningMatchesFilteredAllFrequent) {
  for (uint64_t seed : {61u, 62u, 63u, 64u, 65u, 66u, 67u, 68u}) {
    SequenceDatabase db = QuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 4 + seed % 3;
    const MiningResult all = MineAllFrequent(index, options);
    const PatternTable oracle = FilterClosed(all.patterns);
    for (bool lb_pruning : {true, false}) {
      options.use_landmark_border_pruning = lb_pruning;
      MiningResult closed = MineClosedFrequent(index, options);
      const std::string label =
          "seed=" + std::to_string(seed) + " lb=" + std::to_string(lb_pruning);
      ASSERT_FALSE(closed.stats.truncated) << label;
      EXPECT_EQ(closed.patterns, oracle) << label;
      if (lb_pruning) {
        EXPECT_EQ(closed.stats.closure_checks, closed.stats.nodes_visited)
            << label;
      } else {
        EXPECT_EQ(closed.stats.nodes_visited, all.stats.nodes_visited)
            << label;
        EXPECT_EQ(closed.stats.lb_pruned_subtrees, 0u) << label;
        EXPECT_EQ(closed.stats.nonclosed_suppressed,
                  all.patterns.size() - oracle.size())
            << label;
      }
    }
  }
}

// The bounded-gap extension policy with an unconstrained gap must reduce to
// plain GSgrow (same patterns, same supports).
TEST(EngineParity, UnconstrainedGapPolicyEqualsGSgrow) {
  for (uint64_t seed : {51u, 52u}) {
    SequenceDatabase db = QuestDatabase(seed);
    MinerOptions options;
    options.min_support = 8;
    options.max_pattern_length = 4;
    MiningResult gapped =
        MineAllFrequentGapConstrained(db, options, LandmarkGapConstraint{});
    MiningResult plain = MineAllFrequent(db, options);
    EXPECT_EQ(AsSet(db, gapped.patterns), AsSet(db, plain.patterns))
        << "seed=" << seed;
  }
}

// A wide alphabet (many events, few per sequence) is where the append
// occurrence bound drops the most candidates before growth.
SequenceDatabase WideQuestDatabase(uint64_t seed) {
  QuestParams params;
  params.num_sequences = 40;
  params.avg_sequence_length = 10;
  params.num_events = 60;
  params.avg_pattern_length = 4;
  params.num_potential_patterns = 12;
  params.seed = seed;
  return GenerateQuest(params);
}

// The occurrence bound must not lose a single pattern. Without candidate-
// list inheritance every node tries every frequent root, which is where the
// bound bites hardest: both miners must still match their oracles, while
// growing fewer children than nodes x roots.
TEST(EngineParity, OccurrenceBoundKeepsAnswersOnWideAlphabet) {
  for (uint64_t seed : {71u, 72u, 73u, 74u}) {
    SequenceDatabase db = WideQuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 4;
    options.use_candidate_list = false;
    const std::string label = "seed=" + std::to_string(seed);
    MiningResult all = MineAllFrequent(index, options);
    ASSERT_FALSE(all.stats.truncated) << label;
    EXPECT_EQ(AsSet(db, all.patterns),
              AsSet(db, ReferenceMineAll(db, options.min_support)))
        << label;
    MiningResult closed = MineClosedFrequent(index, options);
    EXPECT_EQ(closed.patterns, FilterClosed(all.patterns)) << label;
    const uint64_t roots = UnconstrainedExtension(index)
                               .FrequentRoots(options.min_support)
                               .size();
    EXPECT_LT(all.stats.insgrow_calls, all.stats.nodes_visited * roots)
        << label;
  }
}

// TopKSink that also records every emission, kept by the heap or not.
class RecordingTopKSink {
 public:
  RecordingTopKSink(size_t k, PatternTable* emitted)
      : heap_(k, 1), emitted_(emitted) {}
  void BeginRoot(size_t root) { heap_.BeginRoot(root); }
  void Emit(const std::vector<EventId>& events, uint64_t support,
            const SupportSet& support_set) {
    emitted_->Append(events, support);
    heap_.Emit(events, support, support_set);
  }
  uint64_t SupportFloor() const { return heap_.SupportFloor(); }
  PatternTable Take() { return heap_.Take(); }

 private:
  TopKSink heap_;
  PatternTable* emitted_;
};

// Top-K raises the floor as the heap fills, so later roots start below it.
// The bound's threshold is min(floor, support), not the floor: candidates
// between the two are still grown because an equal-support append makes the
// node non-closed (CCheck case 1). Every emission — kept or not — must be
// closed, and the kept set must be the best-K prefix of the closed set.
TEST(EngineParity, TopKOccurrenceBoundKeepsClosureBelowTheFloor) {
  for (uint64_t seed : {71u, 72u, 73u, 74u}) {
    SequenceDatabase db = WideQuestDatabase(seed);
    InvertedIndex index(db);
    MinerOptions options;
    options.min_support = 2;
    options.use_candidate_list = false;
    const PatternTable closed = SortedRows(
        FilterClosed(MineAllFrequent(index, options).patterns),
        TopKSink::Better);
    std::set<std::pair<Pattern, uint64_t>> closed_set;
    for (const PatternRow r : closed) {
      closed_set.emplace(r.pattern(), r.support);
    }
    for (size_t k : {1u, 4u, 16u}) {
      const std::string label =
          "seed=" + std::to_string(seed) + " k=" + std::to_string(k);
      ASSERT_GE(closed.size(), k) << label;
      PatternTable emitted;
      UnconstrainedExtension extension(index);
      ClosurePruning closure(index, options);
      MiningResult topk =
          GrowthEngine(extension, closure, RecordingTopKSink(k, &emitted),
                       options)
              .Run();
      for (const PatternRow r : emitted) {
        EXPECT_TRUE(closed_set.count({r.pattern(), r.support}))
            << label << " " << r.pattern().ToCompactString(db.dictionary());
      }
      EXPECT_EQ(topk.patterns, FirstRows(closed, k)) << label;
    }
    MinerOptions facade;
    facade.k = 8;
    facade.min_length = 2;
    PatternTable expected;
    for (const PatternRow r : closed) {
      if (r.events.size() >= 2 && expected.size() < facade.k) {
        expected.Append(r);
      }
    }
    ASSERT_EQ(expected.size(), facade.k) << "seed=" << seed;
    EXPECT_EQ(MineTopKClosed(db, facade), expected) << "seed=" << seed;
  }
}

// Facade-level spot check: the four public miners still hang together after
// the migration (closed ⊆ all; top-K comes from the closed set).
TEST(EngineParity, FacadesAgreeOnQuestData) {
  SequenceDatabase db = QuestDatabase(99);
  MinerOptions options;
  options.min_support = 5;
  options.max_pattern_length = 5;
  auto all = AsSet(db, MineAllFrequent(db, options).patterns);
  MiningResult closed = MineClosedFrequent(db, options);
  std::map<Pattern, uint64_t> closed_by_pattern;
  for (const PatternRow r : closed.patterns) {
    EXPECT_TRUE(all.count({r.pattern().ToCompactString(db.dictionary()),
                           r.support}));
    closed_by_pattern[r.pattern()] = r.support;
  }
  options.k = 5;
  for (const PatternRow r : MineTopKClosed(db, options)) {
    auto it = closed_by_pattern.find(r.pattern());
    if (it != closed_by_pattern.end()) {
      EXPECT_EQ(it->second, r.support);
    }
  }
}

}  // namespace
}  // namespace gsgrow
