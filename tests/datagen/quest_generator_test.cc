#include "datagen/quest_generator.h"

#include "gtest/gtest.h"

#include "core/gsgrow.h"
#include "core/clogsgrow.h"

namespace gsgrow {
namespace {

QuestParams SmallParams() {
  QuestParams p;
  p.num_sequences = 200;
  p.avg_sequence_length = 20;
  p.num_events = 500;
  p.avg_pattern_length = 8;
  p.num_potential_patterns = 50;
  p.seed = 99;
  return p;
}

TEST(QuestGenerator, DeterministicForSameSeed) {
  SequenceDatabase a = GenerateQuest(SmallParams());
  SequenceDatabase b = GenerateQuest(SmallParams());
  ASSERT_EQ(a.size(), b.size());
  for (SeqId i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(QuestGenerator, DifferentSeedsDiffer) {
  QuestParams p = SmallParams();
  SequenceDatabase a = GenerateQuest(p);
  p.seed = 100;
  SequenceDatabase b = GenerateQuest(p);
  bool any_diff = false;
  for (SeqId i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = !(a[i] == b[i]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(QuestGenerator, ShapeMatchesParameters) {
  QuestParams p = SmallParams();
  SequenceDatabase db = GenerateQuest(p);
  DatabaseStats st = db.Stats();
  EXPECT_EQ(st.num_sequences, 200u);
  EXPECT_NEAR(st.avg_length, p.avg_sequence_length,
              p.avg_sequence_length * 0.15);
  EXPECT_LE(db.AlphabetSize(), p.num_events);
  EXPECT_GE(st.min_length, 1u);
}

TEST(QuestGenerator, EmbeddedPatternsRepeat) {
  // The whole point of the generator: some gapped pattern must repeat both
  // across and within sequences, i.e. mining with repetitive support finds
  // multi-event patterns well above the sequence count.
  QuestParams p = SmallParams();
  p.num_events = 60;  // denser alphabet -> more repetition
  SequenceDatabase db = GenerateQuest(p);
  MinerOptions options;
  options.min_support = 40;
  options.max_pattern_length = 3;
  MiningResult result = MineAllFrequent(db, options);
  bool found_multi_event = false;
  for (const PatternRow r : result.patterns) {
    if (r.events.size() >= 2) found_multi_event = true;
  }
  EXPECT_TRUE(found_multi_event);
}

TEST(QuestGenerator, NameFollowsPaperConvention) {
  QuestParams p;
  p.num_sequences = 5000;
  p.avg_sequence_length = 20;
  p.num_events = 10000;
  p.avg_pattern_length = 20;
  EXPECT_EQ(p.Name(), "D5C20N10S20");
  p.num_sequences = 25000;
  p.avg_sequence_length = 50;
  p.avg_pattern_length = 50;
  EXPECT_EQ(p.Name(), "D25C50N10S50");
}

TEST(QuestGenerator, FractionalThousandsInName) {
  QuestParams p;
  p.num_sequences = 500;
  p.avg_sequence_length = 10;
  p.num_events = 100;
  p.avg_pattern_length = 5;
  EXPECT_EQ(p.Name(), "D0.5C10N0.1S5");
}

}  // namespace
}  // namespace gsgrow
