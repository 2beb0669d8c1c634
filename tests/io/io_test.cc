#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "io/dataset_stats.h"
#include "io/spmf_format.h"
#include "io/text_format.h"

namespace gsgrow {
namespace {

TEST(TextFormat, ParseBasic) {
  Result<SequenceDatabase> db = ParseTextDatabase("a b c\nb a\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->size(), 2u);
  EXPECT_EQ((*db)[0].length(), 3u);
  EXPECT_EQ((*db)[1].length(), 2u);
  EXPECT_EQ(db->dictionary().Lookup("a"), 0u);
}

TEST(TextFormat, SkipsCommentsAndBlankLines) {
  Result<SequenceDatabase> db =
      ParseTextDatabase("# header\n\na b\n   \n# trailer\nc\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->size(), 2u);
}

TEST(TextFormat, HandlesTabsAndRepeatedSpaces) {
  Result<SequenceDatabase> db = ParseTextDatabase("a\tb   c\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)[0].length(), 3u);
}

using NameList = std::vector<std::string>;

// Event names of sequence `i`, resolved through the parsed dictionary.
NameList Names(const SequenceDatabase& db, SeqId i) {
  NameList names;
  for (EventId e : db[i]) names.push_back(db.dictionary().Name(e));
  return names;
}

TEST(TextFormat, TokensSplitOnTabsAndRunsOfSpaces) {
  Result<SequenceDatabase> db =
      ParseTextDatabase("  a \t\tbb   c\t\n\t b\t  a  \n");
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->size(), 2u);
  EXPECT_EQ(Names(*db, 0), (NameList{"a", "bb", "c"}));
  EXPECT_EQ(Names(*db, 1), (NameList{"b", "a"}));
  EXPECT_EQ(db->dictionary().size(), 4u);  // a, bb, c, b
}

TEST(TextFormat, CrLfLineEndsAreTrimmed) {
  Result<SequenceDatabase> db =
      ParseTextDatabase("a b\r\n# note\r\n\r\nc a\r\n");
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->size(), 2u);
  EXPECT_EQ(Names(*db, 0), (NameList{"a", "b"}));
  EXPECT_EQ(Names(*db, 1), (NameList{"c", "a"}));
  EXPECT_EQ(db->dictionary().Lookup("b\r"), kNoEvent);
}

TEST(TextFormat, CommentAndBlankLinesKeepIdsInFirstSeenOrder) {
  Result<SequenceDatabase> db =
      ParseTextDatabase("# x y\n\n  # indented\n\t\ny x\n\nx z\n");
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->size(), 2u);
  // Comment tokens are never interned.
  EXPECT_EQ(db->dictionary().Lookup("y"), 0u);
  EXPECT_EQ(db->dictionary().Lookup("x"), 1u);
  EXPECT_EQ(db->dictionary().Lookup("z"), 2u);
  EXPECT_EQ(db->dictionary().Lookup("#"), kNoEvent);
}

TEST(TextFormat, LastLineWithoutNewline) {
  Result<SequenceDatabase> db = ParseTextDatabase("a b\nc d e");
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->size(), 2u);
  EXPECT_EQ(Names(*db, 1), (NameList{"c", "d", "e"}));
  Result<SequenceDatabase> one = ParseTextDatabase("a");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->size(), 1u);
  Result<SequenceDatabase> none = ParseTextDatabase("");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->size(), 0u);
}

TEST(TextFormat, OverlongSequenceNamesItsLine) {
  // Line 4 holds 3 events: at a limit of 3 it is the first to fail.
  const std::string text = "a b\n# c d e f\n\nc d e\na\n";
  Result<SequenceDatabase> db = ParseTextDatabase(text, 3);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(db.status().message().find("line 4:"), std::string::npos)
      << db.status().ToString();
  EXPECT_TRUE(ParseTextDatabase(text, 4).ok());
}

TEST(TextFormat, RoundTrip) {
  SequenceDatabase original = MakeDatabaseFromStrings({"ABCA", "BAC"});
  std::string text = WriteTextDatabase(original);
  Result<SequenceDatabase> restored = ParseTextDatabase(text);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), original.size());
  for (SeqId i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*restored)[i], original[i]);
  }
}

TEST(TextFormat, FileRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "gsgrow_io_test.txt")
          .string();
  SequenceDatabase original = MakeDatabaseFromStrings({"AB", "BA"});
  ASSERT_TRUE(WriteTextDatabaseFile(original, path).ok());
  Result<SequenceDatabase> restored = ReadTextDatabaseFile(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->size(), 2u);
  std::remove(path.c_str());
}

TEST(TextFormat, MissingFileIsIOError) {
  Result<SequenceDatabase> r =
      ReadTextDatabaseFile("/nonexistent/gsgrow/db.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

// A directory opens but fails its first read (EISDIR): an IOError naming
// the path, not an empty database.
TEST(TextFormat, DirectoryIsIOError) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  Result<SequenceDatabase> r = ReadTextDatabaseFile(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find(dir), std::string::npos)
      << r.status().ToString();
}

TEST(TextFormat, EventNameCapIsInclusive) {
  const std::string at_cap(kMaxEventNameBytes, 'x');
  Result<SequenceDatabase> ok = ParseTextDatabase("a " + at_cap + " b\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->dictionary().Lookup(at_cap), 1u);

  const std::string over_cap(kMaxEventNameBytes + 1, 'y');
  Result<SequenceDatabase> over =
      ParseTextDatabase("a b\n# " + over_cap + "\n\nc " + over_cap + "\n");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(over.status().message().find("line 4:"), std::string::npos)
      << over.status().ToString();
  EXPECT_NE(over.status().message().find("4097 bytes"), std::string::npos)
      << over.status().ToString();
}

TEST(SpmfFormat, ParseBasic) {
  Result<SequenceDatabase> db =
      ParseSpmfDatabase("1 -1 2 -1 3 -1 -2\n2 -1 1 -1 -2\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->size(), 2u);
  EXPECT_EQ((*db)[0][0], 1u);
  EXPECT_EQ((*db)[0][2], 3u);
}

TEST(SpmfFormat, MissingTerminatorIsCorruption) {
  Result<SequenceDatabase> db = ParseSpmfDatabase("1 -1 2 -1\n");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
}

TEST(SpmfFormat, NonNumericTokenIsCorruption) {
  Result<SequenceDatabase> db = ParseSpmfDatabase("1 -1 x -1 -2\n");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
}

TEST(SpmfFormat, MultiItemItemsetRejected) {
  Result<SequenceDatabase> db = ParseSpmfDatabase("1 2 -1 -2\n");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
}

TEST(SpmfFormat, EmptyItemsetRejected) {
  Result<SequenceDatabase> db = ParseSpmfDatabase("-1 -2\n");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
}

TEST(SpmfFormat, EmptySequenceAllowed) {
  Result<SequenceDatabase> db = ParseSpmfDatabase("-2\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)[0].length(), 0u);
}

TEST(SpmfFormat, RoundTrip) {
  SequenceDatabase original = MakeDatabaseFromStrings({"ABCA", "BAC"});
  std::string spmf = WriteSpmfDatabase(original);
  Result<SequenceDatabase> restored = ParseSpmfDatabase(spmf);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), original.size());
  for (SeqId i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*restored)[i], original[i]);
  }
}

TEST(SpmfFormat, FileRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "gsgrow_io_test.spmf")
          .string();
  SequenceDatabase original = MakeDatabaseFromStrings({"AB"});
  ASSERT_TRUE(WriteSpmfDatabaseFile(original, path).ok());
  Result<SequenceDatabase> restored = ReadSpmfDatabaseFile(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)[0], original[0]);
  std::remove(path.c_str());
}

TEST(SpmfFormat, DirectoryIsIOError) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  Result<SequenceDatabase> r = ReadSpmfDatabaseFile(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find(dir), std::string::npos)
      << r.status().ToString();
}

TEST(SpmfFormat, MissingFileIsIOError) {
  Result<SequenceDatabase> r =
      ReadSpmfDatabaseFile("/nonexistent/gsgrow/db.spmf");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(DatasetStats, LineFormat) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB", "ABCD"});
  std::string line = FormatStatsLine(db);
  EXPECT_NE(line.find("2 sequences"), std::string::npos);
  EXPECT_NE(line.find("4 events"), std::string::npos);
  EXPECT_NE(line.find("avg length 3.0"), std::string::npos);
  EXPECT_NE(line.find("max 4"), std::string::npos);
}

TEST(DatasetStats, ReportHasHistogram) {
  SequenceDatabase db = MakeDatabaseFromStrings({"A", "AB", "ABCD"});
  std::string report = FormatStatsReport("tiny", db);
  EXPECT_NE(report.find("dataset tiny"), std::string::npos);
  EXPECT_NE(report.find("[1,2)"), std::string::npos);
  EXPECT_NE(report.find("[4,8)"), std::string::npos);
}

}  // namespace
}  // namespace gsgrow
