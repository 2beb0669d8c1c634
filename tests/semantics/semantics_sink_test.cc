// Differential property suite for the semantics-annotation layer
// (core/semantics_sink.h, DESIGN.md §7):
//
//  * one-pass annotations computed at emission (landmark replay against the
//    inverted index) must equal the standalone whole-sequence reference
//    scanners of src/semantics, for every mined pattern, on randomized
//    datagen databases, across all four miner configurations;
//  * annotated output must be byte-identical at 1, 2, and 8 worker threads
//    (the acceptance criterion of the annotation merge rule);
//  * the incremental entry points themselves are cross-checked against
//    their reference counterparts on randomized inputs;
//  * ParseSemanticsSpec accepts the documented grammar and rejects
//    malformed specs with actionable messages.

#include "core/semantics_sink.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/gap_constrained.h"
#include "core/gsgrow.h"
#include "core/instance_growth.h"
#include "core/topk.h"
#include "datagen/quest_generator.h"
#include "semantics/gap_support.h"
#include "semantics/interaction_support.h"
#include "semantics/iterative_support.h"
#include "semantics/landmark_replay.h"
#include "semantics/sequence_count_support.h"
#include "semantics/window_support.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using testing::MakePattern;

// The selection exercised by the mining differentials: every measure, with
// a window and a bounded gap small enough to be discriminating.
SemanticsOptions AllMeasures() {
  return SemanticsOptions::All(/*window_width=*/5, /*min_gap=*/0,
                               /*max_gap=*/2);
}

void ExpectAnnotationsMatchPostHoc(const SequenceDatabase& db,
                                   const PatternTable& records,
                                   const SemanticsOptions& semantics,
                                   const std::string& label) {
  for (const PatternRow r : records) {
    EXPECT_EQ(r.annotation_block(),
              AnnotatePostHoc(db, r.pattern(), semantics))
        << label << " pattern="
        << r.pattern().ToCompactString(db.dictionary());
  }
}

// ---------------------------------------------------------------------------
// One-pass == post-hoc across miners and thread counts
// ---------------------------------------------------------------------------

struct SinkParam {
  uint64_t seed;
  size_t num_seqs;
  size_t max_len;
  size_t alphabet;
};

class SemanticsSinkProperty : public ::testing::TestWithParam<SinkParam> {
 protected:
  SequenceDatabase MakeDb() {
    Rng rng(GetParam().seed);
    return testing::RandomDatabase(&rng, GetParam().num_seqs, 1,
                                   GetParam().max_len, GetParam().alphabet);
  }
};

TEST_P(SemanticsSinkProperty, AllFrequentOnePassEqualsPostHoc) {
  SequenceDatabase db = MakeDb();
  MinerOptions options;
  options.min_support = 2;
  options.max_pattern_length = 4;
  options.semantics = AllMeasures();
  MiningResult baseline = MineAllFrequent(db, options);
  ASSERT_FALSE(baseline.stats.truncated);
  ExpectAnnotationsMatchPostHoc(db, baseline.patterns, options.semantics,
                                "gsgrow");
  for (size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    MiningResult parallel = MineAllFrequent(db, options);
    // PatternTable equality covers the annotation column, so this pins
    // byte-identical annotated output across worker counts.
    EXPECT_EQ(baseline.patterns, parallel.patterns)
        << "threads=" << threads;
  }
}

TEST_P(SemanticsSinkProperty, ClosedOnePassEqualsPostHoc) {
  SequenceDatabase db = MakeDb();
  MinerOptions options;
  options.min_support = 2;
  options.max_pattern_length = 5;
  options.semantics = AllMeasures();
  MiningResult baseline = MineClosedFrequent(db, options);
  ASSERT_FALSE(baseline.stats.truncated);
  ExpectAnnotationsMatchPostHoc(db, baseline.patterns, options.semantics,
                                "clogsgrow");
  for (size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    EXPECT_EQ(baseline.patterns, MineClosedFrequent(db, options).patterns)
        << "threads=" << threads;
  }
}

TEST_P(SemanticsSinkProperty, GapConstrainedOnePassEqualsPostHoc) {
  SequenceDatabase db = MakeDb();
  LandmarkGapConstraint gap;
  gap.min_gap = 0;
  gap.max_gap = 2;
  MinerOptions options;
  options.min_support = 2;
  options.max_pattern_length = 3;
  options.semantics = AllMeasures();
  MiningResult baseline = MineAllFrequentGapConstrained(db, options, gap);
  ASSERT_FALSE(baseline.stats.truncated);
  // The gap-constrained engine's per-node state is the UNCONSTRAINED
  // leftmost support set; the annotations must still be the plain Table-I
  // values of each mined pattern.
  ExpectAnnotationsMatchPostHoc(db, baseline.patterns, options.semantics,
                                "gap_constrained");
  for (size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    EXPECT_EQ(baseline.patterns,
              MineAllFrequentGapConstrained(db, options, gap).patterns)
        << "threads=" << threads;
  }
}

TEST_P(SemanticsSinkProperty, TopKOnePassEqualsPostHoc) {
  SequenceDatabase db = MakeDb();
  MinerOptions options;
  options.k = 9;
  options.min_length = 2;
  options.max_pattern_length = 4;
  options.semantics = AllMeasures();
  PatternTable baseline = MineTopKClosed(db, options);
  ExpectAnnotationsMatchPostHoc(db, baseline, options.semantics, "topk");
  // Every kept record must actually carry the block (WouldKeep only skips
  // records the heap rejects).
  for (const PatternRow r : baseline) {
    EXPECT_FALSE(r.annotations.empty());
  }
  for (size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    EXPECT_EQ(baseline, MineTopKClosed(db, options))
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SemanticsSinkProperty,
    ::testing::Values(SinkParam{201, 6, 10, 3}, SinkParam{202, 8, 12, 2},
                      SinkParam{203, 5, 14, 4}, SinkParam{204, 10, 9, 3},
                      SinkParam{205, 7, 16, 2}),
    [](const ::testing::TestParamInfo<SinkParam>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Annotation semantics details
// ---------------------------------------------------------------------------

TEST(SemanticsSink, PaperExampleAnnotations) {
  // Table I pinned through the one-pass path: AB on Fig. 1 with w=4 and
  // gap [0,3]. Values are database-wide totals (S1 + S2).
  SequenceDatabase db = MakeDatabaseFromStrings({"AABCDABB", "ABCD"});
  MinerOptions options;
  options.min_support = 2;
  options.semantics = SemanticsOptions::All(4, 0, 3);
  MiningResult result = MineClosedFrequent(db, options);
  const Pattern ab = MakePattern(db, "AB");
  bool found = false;
  for (const PatternRow r : result.patterns) {
    if (r.pattern() != ab) continue;
    found = true;
    EXPECT_EQ(r.support, 4u);
    const SemanticsAnnotations block = r.annotation_block();
    uint64_t v = 0;
    ASSERT_TRUE(block.Get(SemanticsMeasure::kSequenceCount, &v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(block.Get(SemanticsMeasure::kFixedWindow, &v));
    EXPECT_EQ(v, 5u);  // 4 windows in S1 (paper) + 1 in S2
    ASSERT_TRUE(block.Get(SemanticsMeasure::kMinimalWindow, &v));
    EXPECT_EQ(v, 3u);  // 2 in S1 (paper) + 1 in S2
    ASSERT_TRUE(block.Get(SemanticsMeasure::kGapOccurrences, &v));
    EXPECT_EQ(v, 5u);  // 4 in S1 (paper) + 1 in S2
    ASSERT_TRUE(block.Get(SemanticsMeasure::kInteraction, &v));
    EXPECT_EQ(v, 9u);  // paper: 8 in S1 + 1 in S2
    ASSERT_TRUE(block.Get(SemanticsMeasure::kIterative, &v));
    EXPECT_EQ(v, 3u);  // paper: 2 in S1 + 1 in S2
  }
  EXPECT_TRUE(found);
}

TEST(SemanticsSink, SelectionControlsBlockContents) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB", "AB"});
  MinerOptions options;
  options.min_support = 2;
  options.semantics.iterative = true;
  options.semantics.sequence_count = true;
  MiningResult result = MineClosedFrequent(db, options);
  ASSERT_FALSE(result.patterns.empty());
  for (const PatternRow r : result.patterns) {
    ASSERT_EQ(r.annotations.size(), 2u);
    // Canonical order: sequence_count before iterative.
    EXPECT_EQ(r.annotations[0].measure,
              SemanticsMeasure::kSequenceCount);
    EXPECT_EQ(r.annotations[1].measure, SemanticsMeasure::kIterative);
  }
}

TEST(SemanticsSink, EmptySelectionYieldsEmptyBlocks) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB", "AB"});
  MinerOptions options;
  options.min_support = 2;
  MiningResult result = MineClosedFrequent(db, options);
  ASSERT_FALSE(result.patterns.empty());
  for (const PatternRow r : result.patterns) {
    EXPECT_TRUE(r.annotations.empty());
  }
}

TEST(SemanticsSink, SelectionDoesNotChangeMinedPatterns) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  MinerOptions plain_options;
  plain_options.min_support = 2;
  MinerOptions annotated_options = plain_options;
  annotated_options.semantics = AllMeasures();
  MiningResult plain = MineClosedFrequent(db, plain_options);
  MiningResult annotated = MineClosedFrequent(db, annotated_options);
  ASSERT_EQ(plain.patterns.size(), annotated.patterns.size());
  for (size_t i = 0; i < plain.patterns.size(); ++i) {
    EXPECT_EQ(plain.patterns[i].pattern(), annotated.patterns[i].pattern());
    EXPECT_EQ(plain.patterns[i].support, annotated.patterns[i].support);
  }
  EXPECT_EQ(plain.stats.nodes_visited, annotated.stats.nodes_visited);
}

TEST(SemanticsSink, AnnotatePatternMatchesPostHoc) {
  Rng rng(42);
  SequenceDatabase db = testing::RandomDatabase(&rng, 6, 3, 12, 3);
  InvertedIndex index(db);
  TableIAnnotator annotator(index, AllMeasures());
  for (const char* s : {"A", "AB", "ABC", "AAB", "BA", "CBA"}) {
    Pattern p = MakePattern(db, s);
    EXPECT_EQ(annotator.AnnotatePattern(p),
              AnnotatePostHoc(db, p, AllMeasures()))
        << s;
  }
}

TEST(SemanticsSink, CountSinkRunsComputeAndDiscard) {
  // collect_patterns = false with a selection: no records, identical DFS.
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  MinerOptions options;
  options.min_support = 2;
  options.collect_patterns = false;
  options.semantics = AllMeasures();
  MiningResult result = MineClosedFrequent(db, options);
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_GT(result.stats.patterns_found, 0u);
}

// ---------------------------------------------------------------------------
// Incremental entry points vs reference scanners
// ---------------------------------------------------------------------------

class ReplayProperty : public ::testing::TestWithParam<SinkParam> {
 protected:
  SequenceDatabase MakeDb() {
    Rng rng(GetParam().seed);
    return testing::RandomDatabase(&rng, GetParam().num_seqs, 1,
                                   GetParam().max_len, GetParam().alphabet);
  }
  std::vector<Pattern> TestPatterns(const SequenceDatabase& db) {
    std::vector<Pattern> out;
    for (const char* s : {"A", "B", "AB", "BA", "AA", "ABA", "AAB", "ABC",
                          "ABAB", "CAB"}) {
      bool valid = true;
      for (const char* c = s; *c; ++c) {
        if (static_cast<size_t>(*c - 'A') >= GetParam().alphabet) {
          valid = false;
        }
      }
      if (valid) out.push_back(MakePattern(db, s));
    }
    return out;
  }
};

TEST_P(ReplayProperty, WindowCountsMatchReference) {
  SequenceDatabase db = MakeDb();
  InvertedIndex index(db);
  std::vector<LandmarkCompletion> completions;
  std::vector<PositionCursor> cursors;
  for (const Pattern& p : TestPatterns(db)) {
    for (SeqId i = 0; i < db.size(); ++i) {
      ReplayLeftmostCompletions(index, i, p.events(), &completions,
                                &cursors);
      for (size_t w : {1u, 2u, 3u, 5u, 9u}) {
        EXPECT_EQ(FixedWindowCountFromLandmarks(completions,
                                                db[i].length(), w),
                  FixedWindowCount(db[i], p, w))
            << p.ToCompactString(db.dictionary()) << " seq=" << i
            << " w=" << w;
      }
      EXPECT_EQ(MinimalWindowCountFromLandmarks(completions),
                MinimalWindowCount(db[i], p))
          << p.ToCompactString(db.dictionary()) << " seq=" << i;
    }
  }
}

TEST_P(ReplayProperty, InteractionCountMatchesReference) {
  SequenceDatabase db = MakeDb();
  InvertedIndex index(db);
  std::vector<LandmarkCompletion> completions;
  std::vector<PositionCursor> cursors;
  for (const Pattern& p : TestPatterns(db)) {
    if (p.size() < 2) continue;
    for (SeqId i = 0; i < db.size(); ++i) {
      ReplayLeftmostCompletions(index, i, p.events(), &completions,
                                &cursors);
      EXPECT_EQ(InteractionCountFromLandmarks(
                    completions, index.Positions(i, p[p.size() - 1])),
                InteractionOccurrenceCount(db[i], p))
          << p.ToCompactString(db.dictionary()) << " seq=" << i;
    }
  }
}

TEST_P(ReplayProperty, IterativeCountMatchesReference) {
  SequenceDatabase db = MakeDb();
  InvertedIndex index(db);
  std::vector<ProjectedEvent> projection;
  std::vector<EventId> alphabet;
  for (const Pattern& p : TestPatterns(db)) {
    BuildAlphabet(p.events(), &alphabet);
    for (SeqId i = 0; i < db.size(); ++i) {
      ReplayProjectedEvents(index, i, alphabet, &projection);
      EXPECT_EQ(IterativeCountFromProjection(projection, p.events()),
                IterativeOccurrenceCount(db[i], p))
          << p.ToCompactString(db.dictionary()) << " seq=" << i;
    }
  }
}

TEST_P(ReplayProperty, GapCountMatchesReference) {
  SequenceDatabase db = MakeDb();
  InvertedIndex index(db);
  GapCountScratch scratch;
  for (const Pattern& p : TestPatterns(db)) {
    for (const GapRequirement gap :
         {GapRequirement{0, 0}, GapRequirement{0, 2}, GapRequirement{1, 3},
          GapRequirement{}}) {
      for (SeqId i = 0; i < db.size(); ++i) {
        EXPECT_EQ(GapOccurrenceCountWithCursor(index, i, p.events(), gap,
                                               &scratch),
                  GapOccurrenceCount(db[i], p, gap))
            << p.ToCompactString(db.dictionary()) << " seq=" << i << " ["
            << gap.min_gap << "," << gap.max_gap << "]";
      }
    }
  }
}

TEST_P(ReplayProperty, SequenceCountMatchesReference) {
  SequenceDatabase db = MakeDb();
  InvertedIndex index(db);
  for (const Pattern& p : TestPatterns(db)) {
    EXPECT_EQ(SequenceCountFromLandmarks(ComputeSupportSet(index, p)),
              SequenceCount(db, p))
        << p.ToCompactString(db.dictionary());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReplayProperty,
    ::testing::Values(SinkParam{301, 4, 12, 2}, SinkParam{302, 5, 15, 3},
                      SinkParam{303, 6, 9, 4}, SinkParam{304, 3, 20, 2},
                      SinkParam{305, 5, 11, 3}),
    [](const ::testing::TestParamInfo<SinkParam>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Quest-scale smoke: annotated closed mining on a datagen corpus
// ---------------------------------------------------------------------------

TEST(SemanticsSink, QuestCorpusDifferential) {
  QuestParams params;
  params.num_sequences = 30;
  params.avg_sequence_length = 12;
  params.num_events = 8;
  params.seed = 7;
  SequenceDatabase db = GenerateQuest(params);
  MinerOptions options;
  options.min_support = 5;
  options.max_pattern_length = 5;
  options.semantics = AllMeasures();
  MiningResult result = MineClosedFrequent(db, options);
  ASSERT_FALSE(result.stats.truncated);
  ASSERT_FALSE(result.patterns.empty());
  ExpectAnnotationsMatchPostHoc(db, result.patterns, options.semantics,
                                "quest");
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(ParseSemanticsSpec, ParsesMeasuresAndParams) {
  Result<SemanticsOptions> r =
      ParseSemanticsSpec("window:w=10,iterative,gap:min=1:max=4,seqcount");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->fixed_window);
  EXPECT_EQ(r->window_width, 10u);
  EXPECT_TRUE(r->iterative);
  EXPECT_TRUE(r->gap_occurrences);
  EXPECT_EQ(r->min_gap, 1u);
  EXPECT_EQ(r->max_gap, 4u);
  EXPECT_TRUE(r->sequence_count);
  EXPECT_FALSE(r->minimal_window);
  EXPECT_FALSE(r->interaction);
}

TEST(ParseSemanticsSpec, CanonicalNamesAndAll) {
  Result<SemanticsOptions> r = ParseSemanticsSpec(
      "fixed_window:w=3,minimal_window,gap_occurrences,interaction");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->fixed_window);
  EXPECT_TRUE(r->minimal_window);
  EXPECT_TRUE(r->gap_occurrences);
  EXPECT_TRUE(r->interaction);

  Result<SemanticsOptions> all = ParseSemanticsSpec("all:w=4:max=3");
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->AnyEnabled());
  EXPECT_TRUE(all->sequence_count && all->iterative);
  EXPECT_EQ(all->window_width, 4u);
  EXPECT_EQ(all->max_gap, 3u);
}

TEST(ParseSemanticsSpec, RoundTripsCanonicalForm) {
  for (const char* spec :
       {"sequence_count", "fixed_window:w=7",
        "sequence_count,fixed_window:w=10,minimal_window,"
        "gap_occurrences:min=1:max=3,interaction,iterative"}) {
    Result<SemanticsOptions> parsed = ParseSemanticsSpec(spec);
    ASSERT_TRUE(parsed.ok()) << spec;
    EXPECT_EQ(SemanticsSpecToString(*parsed), spec);
  }
}

TEST(ParseSemanticsSpec, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "frobnicate", "window:w=0", "window:w=abc", "window:q=3",
        "gap:min=5:max=2", "iterative:w=3", "window:w"}) {
    Result<SemanticsOptions> r = ParseSemanticsSpec(bad);
    EXPECT_FALSE(r.ok()) << bad;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
      // Error messages must teach the vocabulary.
      EXPECT_NE(r.status().message().find("sequence_count"),
                std::string::npos)
          << bad;
    }
  }
}

TEST(SelectionEnables, MirrorsTheSelectionFlags) {
  SemanticsOptions sel;
  sel.iterative = true;
  sel.gap_occurrences = true;
  EXPECT_TRUE(SelectionEnables(sel, SemanticsMeasure::kIterative));
  EXPECT_TRUE(SelectionEnables(sel, SemanticsMeasure::kGapOccurrences));
  EXPECT_FALSE(SelectionEnables(sel, SemanticsMeasure::kFixedWindow));
  EXPECT_FALSE(SelectionEnables(sel, SemanticsMeasure::kSequenceCount));
  for (size_t i = 0; i < kNumSemanticsMeasures; ++i) {
    EXPECT_TRUE(SelectionEnables(SemanticsOptions::All(),
                                 static_cast<SemanticsMeasure>(i)));
  }
}

TEST(SemanticsMeasureNames, RoundTrip) {
  for (size_t i = 0; i < kNumSemanticsMeasures; ++i) {
    const SemanticsMeasure m = static_cast<SemanticsMeasure>(i);
    SemanticsMeasure back;
    ASSERT_TRUE(
        SemanticsMeasureFromName(SemanticsMeasureName(m), &back));
    EXPECT_EQ(back, m);
  }
  SemanticsMeasure out;
  EXPECT_FALSE(SemanticsMeasureFromName("nope", &out));
}

}  // namespace
}  // namespace gsgrow
