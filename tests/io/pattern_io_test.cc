#include "io/pattern_io.h"

#include <cstdio>
#include <filesystem>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/instance_growth.h"
#include "core/inverted_index.h"
#include "core/semantics_sink.h"
#include "test_util.h"

namespace gsgrow {
namespace {

TEST(PatternIo, WriteFormat) {
  EventDictionary dict;
  dict.Intern("lock");
  dict.Intern("unlock");
  PatternTable records = testing::MakeTable({{Pattern({0, 1}), 321}});
  std::string text = WritePatterns(records, dict);
  EXPECT_NE(text.find("321\tlock unlock"), std::string::npos);
}

TEST(PatternIo, RoundTrip) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  MinerOptions options;
  options.min_support = 3;
  MiningResult closed = MineClosedFrequent(db, options);
  std::string text = WritePatterns(closed.patterns, db.dictionary());

  EventDictionary dict;
  Result<PatternTable> restored = ParsePatterns(text, &dict);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), closed.patterns.size());
  for (size_t i = 0; i < restored->size(); ++i) {
    EXPECT_EQ((*restored)[i].support, closed.patterns[i].support);
    EXPECT_EQ((*restored)[i].pattern().ToString(dict),
              closed.patterns[i].pattern().ToString(db.dictionary()));
  }
}

TEST(PatternIo, ReloadedPatternsEvaluateOnDatabase) {
  // Patterns written from one run can be re-evaluated against the database
  // when parsed with ITS dictionary.
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB", "AB"});
  MinerOptions options;
  options.min_support = 2;
  MiningResult closed = MineClosedFrequent(db, options);
  std::string text = WritePatterns(closed.patterns, db.dictionary());
  EventDictionary* dict = db.mutable_dictionary();
  Result<PatternTable> restored = ParsePatterns(text, dict);
  ASSERT_TRUE(restored.ok());
  InvertedIndex index(db);
  for (const PatternRow r : *restored) {
    EXPECT_EQ(ComputeSupport(index, r.pattern()), r.support);
  }
}

TEST(PatternIo, WritesAnnotationBlock) {
  EventDictionary dict;
  dict.Intern("a");
  dict.Intern("b");
  SemanticsAnnotations ann;
  ann.values.push_back({SemanticsMeasure::kFixedWindow, 4});
  ann.values.push_back({SemanticsMeasure::kIterative, 3});
  PatternTable records = testing::MakeTable({{Pattern({0, 1}), 7, ann}});
  std::string text = WritePatterns(records, dict);
  EXPECT_NE(text.find("7\ta b\t|\tfixed_window=4 iterative=3"),
            std::string::npos);
}

TEST(PatternIo, AnnotatedRoundTripIsExact) {
  // Records straight out of the one-pass miner, with every measure
  // enabled: write + parse must restore pattern, support, AND the
  // annotation block bit-for-bit.
  SequenceDatabase db = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  MinerOptions options;
  options.min_support = 2;
  options.semantics = SemanticsOptions::All(/*window_width=*/4,
                                            /*min_gap=*/0, /*max_gap=*/3);
  MiningResult mined = MineClosedFrequent(db, options);
  ASSERT_FALSE(mined.patterns.empty());
  ASSERT_TRUE(mined.patterns.annotated());
  std::string text = WritePatterns(mined.patterns, db.dictionary());

  EventDictionary* dict = db.mutable_dictionary();
  Result<PatternTable> restored = ParsePatterns(text, dict);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, mined.patterns);
}

TEST(PatternIo, MixedAnnotatedAndPlainLines) {
  EventDictionary dict;
  Result<PatternTable> r = ParsePatterns(
      "5\ta b\n3\tb a\t|\tsequence_count=2 iterative=1\n", &dict);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_TRUE((*r)[0].annotations.empty());
  ASSERT_EQ((*r)[1].annotations.size(), 2u);
  EXPECT_EQ((*r)[1].annotations[0].measure,
            SemanticsMeasure::kSequenceCount);
  EXPECT_EQ((*r)[1].annotations[0].value, 2u);
  EXPECT_EQ((*r)[1].annotations[1].measure,
            SemanticsMeasure::kIterative);
  EXPECT_EQ((*r)[1].annotations[1].value, 1u);
}

TEST(PatternIo, RejectsMalformedAnnotations) {
  EventDictionary dict;
  // Unknown measure name.
  EXPECT_FALSE(ParsePatterns("5\ta\t|\tbogus=1\n", &dict).ok());
  // Negative value.
  EXPECT_FALSE(ParsePatterns("5\ta\t|\titerative=-2\n", &dict).ok());
  // Value overflowing uint64.
  EXPECT_FALSE(
      ParsePatterns("5\ta\t|\titerative=99999999999999999999\n", &dict).ok());
  // Separator with no events before it.
  EXPECT_FALSE(ParsePatterns("5\t|\titerative=1\n", &dict).ok());
}

TEST(PatternIo, SaturatedAnnotationValuesRoundTrip) {
  // Measure counters saturate at UINT64_MAX by design (gap_support.cc);
  // written files must come back bit-for-bit.
  EventDictionary dict;
  dict.Intern("a");
  SemanticsAnnotations ann;
  ann.values.push_back(
      {SemanticsMeasure::kGapOccurrences, UINT64_MAX});
  PatternTable records = testing::MakeTable({{Pattern({0}), 2, ann}});
  Result<PatternTable> restored =
      ParsePatterns(WritePatterns(records, dict), &dict);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, records);
}

TEST(PatternIo, PipeEventNamesStayEvents) {
  // "|" is only the annotation separator when followed exclusively by
  // name=value pairs; databases whose alphabet contains "|" keep parsing.
  EventDictionary dict;
  Result<PatternTable> r =
      ParsePatterns("5\ta | b\n3\t|\n", &dict);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].events.size(), 3u);
  EXPECT_TRUE((*r)[0].annotations.empty());
  EXPECT_EQ((*r)[1].events.size(), 1u);

  // And a "|" event WITH annotations round-trips through the writer.
  EventDictionary pipe_dict;
  pipe_dict.Intern("|");
  SemanticsAnnotations ann;
  ann.values.push_back({SemanticsMeasure::kIterative, 4});
  PatternTable records = testing::MakeTable({{Pattern({0}), 4, ann}});
  Result<PatternTable> restored =
      ParsePatterns(WritePatterns(records, pipe_dict), &pipe_dict);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, records);
}

TEST(PatternIo, SkipsCommentsAndBlankLines) {
  EventDictionary dict;
  Result<PatternTable> r =
      ParsePatterns("# header\n\n5\ta b\n", &dict);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].support, 5u);
  EXPECT_EQ((*r)[0].events.size(), 2u);
}

TEST(PatternIo, RejectsMalformedLines) {
  EventDictionary dict;
  EXPECT_FALSE(ParsePatterns("justoneword\n", &dict).ok());
  EXPECT_FALSE(ParsePatterns("notanumber a b\n", &dict).ok());
  EXPECT_FALSE(ParsePatterns("-3 a\n", &dict).ok());
}

TEST(PatternIo, FileRoundTrip) {
  std::string path = (std::filesystem::temp_directory_path() /
                      "gsgrow_patterns_test.tsv")
                         .string();
  EventDictionary dict;
  dict.Intern("x");
  PatternTable records = testing::MakeTable({{Pattern({0}), 7}});
  ASSERT_TRUE(WritePatternsFile(records, dict, path).ok());
  EventDictionary dict2;
  Result<PatternTable> restored =
      ReadPatternsFile(path, &dict2);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)[0].support, 7u);
  std::remove(path.c_str());
}

TEST(PatternIo, MissingFile) {
  EventDictionary dict;
  EXPECT_EQ(ReadPatternsFile("/nonexistent/p.tsv", &dict).status().code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace gsgrow
