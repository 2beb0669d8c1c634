// Fuzz-style hardening tests for the database parsers: malformed, hostile,
// and randomized inputs must produce a clean Status (or a valid database),
// never UB, silent truncation, or a crash. The randomized inputs use a
// fixed-seed xorshift generator so failures reproduce.

#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/gsgrow.h"
#include "io/spmf_format.h"
#include "io/text_format.h"
#include "test_util.h"

namespace gsgrow {
namespace {

// Deterministic xorshift64* byte stream.
class FuzzBytes {
 public:
  explicit FuzzBytes(uint64_t seed) : state_(seed == 0 ? 0x9e3779b9u : seed) {}

  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
  }

  std::string String(size_t length, bool printable_only) {
    std::string out;
    out.reserve(length);
    for (size_t i = 0; i < length; ++i) {
      const char c = static_cast<char>(Next() & 0xFF);
      if (printable_only) {
        // Bias toward the characters the parsers actually dispatch on.
        static const char kAlphabet[] = "0123456789- \t\n#x\r";
        out.push_back(kAlphabet[Next() % (sizeof(kAlphabet) - 1)]);
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

 private:
  uint64_t state_;
};

TEST(SpmfRobustness, EventIdAtSentinelIsOutOfRange) {
  // 4294967295 == kNoEvent: accepting it would collide with the invalid-
  // event sentinel.
  Result<SequenceDatabase> db = ParseSpmfDatabase("4294967295 -1 -2\n");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kOutOfRange);
}

TEST(SpmfRobustness, EventIdBeyondUint32IsNotSilentlyTruncated) {
  // 2^32 would static_cast to 0; the parser must reject it instead of
  // aliasing item 0.
  Result<SequenceDatabase> db = ParseSpmfDatabase("4294967296 -1 -2\n");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kOutOfRange);
}

TEST(SpmfRobustness, MaxValidEventIdRoundTrips) {
  Result<SequenceDatabase> db = ParseSpmfDatabase("4294967294 -1 -2\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)[0][0], 4294967294u);
}

TEST(SpmfRobustness, Int64OverflowTokenIsCorruption) {
  Result<SequenceDatabase> db =
      ParseSpmfDatabase("99999999999999999999999999 -1 -2\n");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
}

TEST(SpmfRobustness, NegativeBeyondMarkersIsCorruption) {
  Result<SequenceDatabase> db = ParseSpmfDatabase("1 -1 -3 -1 -2\n");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
}

TEST(SpmfRobustness, CrlfLineEndingsParse) {
  Result<SequenceDatabase> db = ParseSpmfDatabase("1 -1 2 -1 -2\r\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)[0].length(), 2u);
}

TEST(SpmfRobustness, EmptyContentIsEmptyDatabase) {
  Result<SequenceDatabase> db = ParseSpmfDatabase("");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->empty());
}

TEST(SpmfRobustness, MiningParsedEmptyAndDegenerateSequencesIsSafe) {
  // Empty sequences are legal SPMF; the whole pipeline must handle them.
  Result<SequenceDatabase> db = ParseSpmfDatabase("-2\n-2\n1 -1 -2\n-2\n");
  ASSERT_TRUE(db.ok());
  MinerOptions options;
  options.min_support = 1;
  MiningResult all = MineAllFrequent(*db, options);
  MiningResult closed = MineClosedFrequent(*db, options);
  EXPECT_EQ(all.patterns.size(), 1u);
  EXPECT_EQ(closed.patterns.size(), 1u);
}

TEST(SpmfRobustness, RandomPrintableInputNeverCrashes) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    FuzzBytes fuzz(seed);
    const std::string content = fuzz.String(64 + seed % 512, true);
    Result<SequenceDatabase> db = ParseSpmfDatabase(content);
    if (db.ok()) {
      // Whatever parsed must be minable without tripping invariants.
      MinerOptions options;
      options.min_support = 1;
      options.max_pattern_length = 3;
      MineClosedFrequent(*db, options);
    } else {
      EXPECT_FALSE(db.status().message().empty()) << "seed=" << seed;
    }
  }
}

TEST(SpmfRobustness, RandomBinaryInputNeverCrashes) {
  for (uint64_t seed = 301; seed <= 400; ++seed) {
    FuzzBytes fuzz(seed);
    Result<SequenceDatabase> db = ParseSpmfDatabase(fuzz.String(256, false));
    if (!db.ok()) {
      EXPECT_NE(db.status().code(), StatusCode::kOk) << "seed=" << seed;
    }
  }
}

TEST(SpmfRobustness, TruncatedFilePrefixesFailCleanly) {
  const std::string full = "10 -1 20 -1 30 -1 -2\n40 -1 -2\n";
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Result<SequenceDatabase> db = ParseSpmfDatabase(full.substr(0, cut));
    if (!db.ok()) {
      EXPECT_EQ(db.status().code(), StatusCode::kCorruption)
          << "cut=" << cut << " content='" << full.substr(0, cut) << "'";
    }
  }
}

TEST(TextRobustness, RandomPrintableInputAlwaysParsesAndMines) {
  // Every whitespace-separated token is a legal event name, so the text
  // parser accepts arbitrary printable content; the result must be minable.
  for (uint64_t seed = 501; seed <= 600; ++seed) {
    FuzzBytes fuzz(seed);
    Result<SequenceDatabase> db =
        ParseTextDatabase(fuzz.String(64 + seed % 256, true));
    ASSERT_TRUE(db.ok()) << "seed=" << seed;
    MinerOptions options;
    options.min_support = 1;
    options.max_pattern_length = 3;
    MineAllFrequent(*db, options);
  }
}

TEST(TextRobustness, RandomBinaryInputNeverCrashes) {
  for (uint64_t seed = 701; seed <= 800; ++seed) {
    FuzzBytes fuzz(seed);
    Result<SequenceDatabase> db = ParseTextDatabase(fuzz.String(256, false));
    // Binary tokens are still names; only the length guard can reject.
    (void)db;
  }
}

TEST(TextRobustness, MiningEmptyParsedDatabaseIsSafe) {
  Result<SequenceDatabase> db = ParseTextDatabase("# only comments\n\n   \n");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->empty());
  MinerOptions options;
  options.min_support = 1;
  EXPECT_TRUE(MineClosedFrequent(*db, options).patterns.empty());
}

// The text format spelled out the plain way: split at '\n', trim each line
// of isspace() bytes, skip blank and '#' lines, split the rest at runs of
// ' ' and '\t', and number names in first-seen order. ParseTextDatabase
// must agree with it on every input without an over-long token.
struct ReferenceParse {
  std::vector<std::string> names;
  std::vector<std::vector<EventId>> sequences;
};

ReferenceParse ReferenceTokenize(const std::string& text) {
  ReferenceParse out;
  std::unordered_map<std::string, EventId> ids;
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  size_t start = 0;
  while (start < text.size()) {
    size_t stop = text.find('\n', start);
    if (stop == std::string::npos) stop = text.size();
    std::string line = text.substr(start, stop - start);
    start = stop + 1;
    while (!line.empty() && is_space(line.back())) line.pop_back();
    size_t first = 0;
    while (first < line.size() && is_space(line[first])) ++first;
    line.erase(0, first);
    if (line.empty() || line[0] == '#') continue;
    std::vector<EventId>& sequence = out.sequences.emplace_back();
    std::string token;
    for (size_t i = 0; i <= line.size(); ++i) {
      if (i < line.size() && line[i] != ' ' && line[i] != '\t') {
        token.push_back(line[i]);
        continue;
      }
      if (token.empty()) continue;
      auto [it, fresh] =
          ids.emplace(token, static_cast<EventId>(out.names.size()));
      if (fresh) out.names.push_back(token);
      sequence.push_back(it->second);
      token.clear();
    }
  }
  return out;
}

// Seeded corpora mixing printable and raw bytes: CR, tabs, vertical tabs,
// NUL bytes, comments, blank and whitespace-only lines, and names of 15,
// 16, 17 and 4096 bytes (the short-string and hash-word boundaries, and the
// length cap itself).
std::string DifferentialCorpus(uint64_t seed) {
  FuzzBytes fuzz(seed);
  const bool binary = seed % 2 == 0;
  static const char kSeparators[] = {' ', '\t', ' ', ' '};
  static const size_t kLongNames[] = {15, 16, 17, 4096};
  std::string text;
  const size_t lines = 20 + fuzz.Next() % 40;
  for (size_t l = 0; l < lines; ++l) {
    switch (fuzz.Next() % 8) {
      case 0:
        text += "# comment " + fuzz.String(fuzz.Next() % 20, true);
        break;
      case 1:
        text += std::string(fuzz.Next() % 3, ' ') + "\v\f";
        break;
      default: {
        const size_t tokens = fuzz.Next() % 12;
        if (fuzz.Next() % 4 == 0) text += " \t";
        for (size_t t = 0; t < tokens; ++t) {
          if (t > 0) {
            text.append(1 + fuzz.Next() % 2,
                        kSeparators[fuzz.Next() % sizeof(kSeparators)]);
          }
          std::string name;
          if (fuzz.Next() % 6 == 0) {
            const size_t length = kLongNames[fuzz.Next() % 4];
            name.assign(length, static_cast<char>('a' + fuzz.Next() % 3));
            name[length / 2] = static_cast<char>('0' + fuzz.Next() % 2);
          } else {
            name = binary ? fuzz.String(1 + fuzz.Next() % 6, false)
                          : testing::NumberedName("e", fuzz.Next() % 30);
            if (fuzz.Next() % 5 == 0) name.push_back('\0');
          }
          text += name;
        }
        if (fuzz.Next() % 3 == 0) text += "\r";
      }
    }
    if (l + 1 < lines || fuzz.Next() % 2 == 0) text += "\n";
  }
  return text;
}

TEST(TextRobustness, ParserMatchesReferenceTokenizer) {
  for (uint64_t seed = 901; seed <= 1100; ++seed) {
    const std::string text = DifferentialCorpus(seed);
    const ReferenceParse want = ReferenceTokenize(text);
    Result<SequenceDatabase> got = ParseTextDatabase(text);
    // A binary token can hold '\n' or a space and so split differently from
    // how it was generated, but never grows past the 4096-byte cap.
    ASSERT_TRUE(got.ok()) << "seed=" << seed << " " << got.status().ToString();
    ASSERT_EQ(got->dictionary().size(), want.names.size()) << "seed=" << seed;
    for (EventId id = 0; id < want.names.size(); ++id) {
      ASSERT_EQ(got->dictionary().Name(id), want.names[id])
          << "seed=" << seed << " id=" << id;
    }
    ASSERT_EQ(got->size(), want.sequences.size()) << "seed=" << seed;
    for (SeqId i = 0; i < want.sequences.size(); ++i) {
      ASSERT_EQ((*got)[i].events(), want.sequences[i])
          << "seed=" << seed << " seq=" << i;
    }
  }
}

}  // namespace
}  // namespace gsgrow
