#include "core/inverted_index.h"

#include <algorithm>
#include <span>
#include <vector>

#include "gtest/gtest.h"

#include "core/sequence_database.h"
#include "test_util.h"

namespace gsgrow {
namespace {

class InvertedIndexTest : public ::testing::Test {
 protected:
  // S1 = ABCACBDDB, S2 = ACDBACADD (Table III of the paper).
  SequenceDatabase db_ = MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  InvertedIndex index_{db_};
  EventId A_ = db_.dictionary().Lookup("A");
  EventId B_ = db_.dictionary().Lookup("B");
  EventId C_ = db_.dictionary().Lookup("C");
  EventId D_ = db_.dictionary().Lookup("D");
};

TEST_F(InvertedIndexTest, PositionsAreSortedPerSequence) {
  auto pos = index_.Positions(0, A_);
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], 0u);
  EXPECT_EQ(pos[1], 3u);
  auto pos2 = index_.Positions(1, A_);
  ASSERT_EQ(pos2.size(), 3u);
  EXPECT_EQ(pos2[0], 0u);
  EXPECT_EQ(pos2[1], 4u);
  EXPECT_EQ(pos2[2], 6u);
}

TEST_F(InvertedIndexTest, PositionsOfAbsentEventEmpty) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB", "CD"});
  InvertedIndex idx(db);
  EventId c = db.dictionary().Lookup("C");
  EXPECT_TRUE(idx.Positions(0, c).empty());
}

TEST_F(InvertedIndexTest, NextAtOrAfterFindsFirst) {
  EXPECT_EQ(index_.NextAtOrAfter(0, A_, 0), 0u);
  EXPECT_EQ(index_.NextAtOrAfter(0, A_, 1), 3u);
  EXPECT_EQ(index_.NextAtOrAfter(0, A_, 3), 3u);
  EXPECT_EQ(index_.NextAtOrAfter(0, A_, 4), kNoPosition);
}

TEST_F(InvertedIndexTest, NextAtOrAfterMatchesPaperNextSemantics) {
  // Paper Example 3.3: next(S1, B, max{6,5}) = 9 in 1-based positions.
  // 0-based: next position of B at or after 6 is 8.
  EXPECT_EQ(index_.NextAtOrAfter(0, B_, 6), 8u);
}

TEST_F(InvertedIndexTest, CountPerSequence) {
  EXPECT_EQ(index_.Count(0, B_), 3u);
  EXPECT_EQ(index_.Count(1, B_), 1u);
  EXPECT_EQ(index_.Count(0, D_), 2u);
  EXPECT_EQ(index_.Count(1, D_), 3u);
}

TEST_F(InvertedIndexTest, TotalCount) {
  EXPECT_EQ(index_.TotalCount(A_), 5u);
  EXPECT_EQ(index_.TotalCount(B_), 4u);
  EXPECT_EQ(index_.TotalCount(C_), 4u);
  EXPECT_EQ(index_.TotalCount(D_), 5u);
  EXPECT_EQ(index_.TotalCount(999), 0u);
}

TEST_F(InvertedIndexTest, PostingsAscendingBySequence) {
  const auto postings = index_.Postings(A_);
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(std::vector<SeqId>(postings.begin(), postings.end()),
            (std::vector<SeqId>{0, 1}));
  // Per-sequence counts come from the blocks.
  EXPECT_EQ(index_.Count(0, A_), 2u);
  EXPECT_EQ(index_.Count(1, A_), 3u);
}

TEST_F(InvertedIndexTest, PostingsOfUnknownEventEmpty) {
  EXPECT_TRUE(index_.Postings(1234).empty());
}

TEST_F(InvertedIndexTest, EventsInSequenceSorted) {
  auto events = index_.EventsInSequence(0);
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1], events[i]);
  }
}

TEST_F(InvertedIndexTest, PresentEventsCoversAlphabet) {
  EXPECT_EQ(index_.present_events().size(), 4u);
  EXPECT_EQ(index_.alphabet_size(), 4u);
  EXPECT_EQ(index_.num_sequences(), 2u);
}

TEST(InvertedIndexEdge, EmptyDatabase) {
  SequenceDatabase db;
  InvertedIndex idx(db);
  EXPECT_EQ(idx.alphabet_size(), 0u);
  EXPECT_EQ(idx.num_sequences(), 0u);
  EXPECT_TRUE(idx.present_events().empty());
}

TEST(InvertedIndexEdge, SequenceWithOneEvent) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AAAA"});
  InvertedIndex idx(db);
  EXPECT_EQ(idx.TotalCount(0), 4u);
  EXPECT_EQ(idx.NextAtOrAfter(0, 0, 2), 2u);
  EXPECT_EQ(idx.NextAtOrAfter(0, 0, 4), kNoPosition);
}

TEST(InvertedIndexEdge, SparseAlphabetIds) {
  SequenceDatabaseBuilder b;
  b.AddSequenceIds({0, 100, 0});
  SequenceDatabase db = b.Build();
  InvertedIndex idx(db);
  EXPECT_EQ(idx.alphabet_size(), 101u);
  EXPECT_EQ(idx.TotalCount(100), 1u);
  EXPECT_EQ(idx.TotalCount(50), 0u);
  EXPECT_EQ(idx.present_events().size(), 2u);
}

TEST_F(InvertedIndexTest, CursorAnswersLikePointQueries) {
  // S1 = ABCACBDDB: B at 1, 5, 8. Rising-bound queries through one cursor
  // must match fresh binary searches.
  PositionCursor cursor = index_.Cursor(0, B_);
  EXPECT_FALSE(cursor.empty());
  EXPECT_EQ(cursor.NextAtOrAfter(0), 1u);
  EXPECT_EQ(cursor.NextAtOrAfter(1), 1u);  // same bound: not yet consumed
  EXPECT_EQ(cursor.NextAtOrAfter(2), 5u);
  EXPECT_EQ(cursor.NextAtOrAfter(6), 8u);
  EXPECT_EQ(cursor.NextAtOrAfter(9), kNoPosition);
  // Exhausted cursors stay exhausted.
  EXPECT_EQ(cursor.NextAtOrAfter(9), kNoPosition);
}

TEST_F(InvertedIndexTest, CursorOverAbsentEventIsEmpty) {
  PositionCursor cursor = index_.Cursor(0, 999);
  EXPECT_TRUE(cursor.empty());
  EXPECT_EQ(cursor.NextAtOrAfter(0), kNoPosition);
}

TEST_F(InvertedIndexTest, DefaultCursorIsEmpty) {
  PositionCursor cursor;
  EXPECT_TRUE(cursor.empty());
  EXPECT_EQ(cursor.NextAtOrAfter(0), kNoPosition);
}

TEST_F(InvertedIndexTest, PrevBeforeWalksBackward) {
  // S1 = ABCACBDDB: B at 1, 5, 8.
  PositionCursor cursor = index_.Cursor(0, B_);
  EXPECT_EQ(cursor.PrevBefore(kNoPosition), 8u);
  EXPECT_EQ(cursor.PrevBefore(9), 8u);  // same answer: not yet consumed
  EXPECT_EQ(cursor.PrevBefore(8), 5u);
  EXPECT_EQ(cursor.PrevBefore(5), 1u);
  EXPECT_EQ(cursor.PrevBefore(1), kNoPosition);
  // Exhausted cursors stay exhausted.
  EXPECT_EQ(cursor.PrevBefore(0), kNoPosition);
}

TEST_F(InvertedIndexTest, PrevBeforeOverAbsentEventIsEmpty) {
  PositionCursor cursor = index_.Cursor(0, 999);
  EXPECT_EQ(cursor.PrevBefore(kNoPosition), kNoPosition);
  PositionCursor empty;
  EXPECT_EQ(empty.PrevBefore(5), kNoPosition);
}

TEST_F(InvertedIndexTest, PrevBeforeAtOrBelowFirstPositionIsNone) {
  // B first occurs at 1: a bound of 1 (or 0) leaves nothing before it.
  PositionCursor at = index_.Cursor(0, B_);
  EXPECT_EQ(at.PrevBefore(1), kNoPosition);
  PositionCursor below = index_.Cursor(0, B_);
  EXPECT_EQ(below.PrevBefore(0), kNoPosition);
  // A bound just above the first position still finds it, in one jump
  // over the whole list.
  PositionCursor above = index_.Cursor(0, B_);
  EXPECT_EQ(above.PrevBefore(2), 1u);
}

// Positions of `e` in `s`, by a linear scan of the raw sequence.
std::vector<Position> ScanPositions(const Sequence& s, EventId e) {
  std::vector<Position> out;
  for (Position p = 0; p < s.length(); ++p) {
    if (s[p] == e) out.push_back(p);
  }
  return out;
}

// The galloping advance must agree with std::lower_bound over the scanned
// list for every non-decreasing query stream, including large jumps that
// exercise the doubling phase and repeated equal bounds.
TEST(InvertedIndexProperty, CursorMatchesNextAtOrAfterOnRandomStreams) {
  Rng rng(202);
  for (int round = 0; round < 50; ++round) {
    const size_t max_len = round % 3 == 2 ? 400 : 60;
    SequenceDatabase db = testing::RandomDatabase(&rng, 2, 10, max_len, 3);
    InvertedIndex idx(db);
    for (SeqId i = 0; i < db.size(); ++i) {
      for (EventId e = 0; e < db.AlphabetSize(); ++e) {
        const std::vector<Position> list = ScanPositions(db[i], e);
        PositionCursor cursor = idx.Cursor(i, e);
        Position from = 0;
        while (from <= db[i].length()) {
          const auto it = std::lower_bound(list.begin(), list.end(), from);
          EXPECT_EQ(cursor.NextAtOrAfter(from),
                    it == list.end() ? kNoPosition : *it)
              << "round=" << round << " seq=" << i << " e=" << e
              << " from=" << from;
          // Mix of small steps (consume adjacent positions) and jumps
          // (force galloping over several positions at once).
          from += 1 + static_cast<Position>(rng.UniformInt(
                         round % 2 == 0 ? 3 : db[i].length() / 2 + 1));
        }
      }
    }
  }
}

// The backward gallop must agree with std::lower_bound over the scanned
// list for every non-increasing bound stream, on lists long enough for the
// doubling phase to cover hundreds of positions.
TEST(InvertedIndexProperty, PrevBeforeMatchesLowerBoundOnLongLists) {
  Rng rng(4242);
  for (int round = 0; round < 40; ++round) {
    const size_t max_len = round % 4 == 3 ? 3000 : 300;
    SequenceDatabase db =
        testing::RandomDatabase(&rng, 2, max_len / 2, max_len, 3);
    InvertedIndex idx(db);
    for (SeqId i = 0; i < db.size(); ++i) {
      for (EventId e = 0; e < db.AlphabetSize(); ++e) {
        const std::vector<Position> list = ScanPositions(db[i], e);
        PositionCursor cursor = idx.Cursor(i, e);
        Position bound = db[i].length() + 1;
        while (true) {
          const auto it = std::lower_bound(list.begin(), list.end(), bound);
          EXPECT_EQ(cursor.PrevBefore(bound),
                    it == list.begin() ? kNoPosition : *(it - 1))
              << "round=" << round << " seq=" << i << " e=" << e
              << " bound=" << bound;
          if (bound == 0) break;
          // Repeated bounds, single steps and long jumps.
          const Position step = static_cast<Position>(rng.UniformInt(
              round % 2 == 0 ? 3 : db[i].length() / 2 + 1));
          bound = step >= bound ? 0 : bound - step;
        }
      }
    }
  }
}

// Differential check of NextAtOrAfter against a linear scan on random data.
TEST(InvertedIndexProperty, NextMatchesLinearScan) {
  Rng rng(101);
  for (int round = 0; round < 30; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 3, 1, 20, 4);
    InvertedIndex idx(db);
    for (SeqId i = 0; i < db.size(); ++i) {
      const Sequence& s = db[i];
      for (EventId e = 0; e < db.AlphabetSize(); ++e) {
        for (Position from = 0; from <= s.length(); ++from) {
          Position expected = kNoPosition;
          for (Position p = from; p < s.length(); ++p) {
            if (s[p] == e) {
              expected = p;
              break;
            }
          }
          EXPECT_EQ(idx.NextAtOrAfter(i, e, from), expected);
        }
      }
    }
  }
}

// The whole query surface against the raw sequences: every position list
// is the scanned list, point queries are std::lower_bound over it, and
// counts and lengths follow. Long sequences over a small alphabet give long
// lists; occasional large alphabets give many short ones.
TEST(InvertedIndexProperty, QuerySurfaceMatchesLowerBound) {
  Rng rng(613);
  for (int round = 0; round < 12; ++round) {
    const size_t alphabet = round % 4 == 3 ? 20 : 3;
    SequenceDatabase db = testing::RandomDatabase(&rng, 3, 50, 500, alphabet);
    InvertedIndex idx(db);
    for (SeqId i = 0; i < db.size(); ++i) {
      ASSERT_EQ(idx.SequenceLength(i), db[i].length());
      for (EventId e = 0; e < db.AlphabetSize(); ++e) {
        const std::vector<Position> want = ScanPositions(db[i], e);
        const std::span<const Position> got = idx.Positions(i, e);
        ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(),
                               got.end()))
            << "seq " << i << " e " << e;
        ASSERT_EQ(idx.Count(i, e), want.size());
        for (Position from = 0; from <= db[i].length() + 1; ++from) {
          const auto it = std::lower_bound(want.begin(), want.end(), from);
          ASSERT_EQ(idx.NextAtOrAfter(i, e, from),
                    it == want.end() ? kNoPosition : *it)
              << "seq " << i << " e " << e << " from " << from;
        }
      }
    }
  }
}

// Blocks list their distinct events ascending on both sides of the block
// builder's sort switch (rank counting up to 64 distinct events,
// std::sort above), with every position list equal to the scanned one.
TEST(InvertedIndexProperty, WideSequencesListEventsAscending) {
  Rng rng(907);
  for (const size_t distinct : {1, 2, 63, 64, 65, 300}) {
    std::vector<EventId> events;
    for (size_t k = 0; k < distinct; ++k) {
      for (size_t r = 0; r <= k % 3; ++r) {
        events.push_back(static_cast<EventId>(k * 7 + 3));
      }
    }
    rng.Shuffle(&events);
    std::vector<Sequence> sequences;
    sequences.emplace_back(events);
    const SequenceDatabase db(std::move(sequences));
    const InvertedIndex idx(db);
    std::vector<EventId> want = events;
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    const std::span<const EventId> got = idx.EventsInSequence(0);
    ASSERT_EQ(std::vector<EventId>(got.begin(), got.end()), want)
        << distinct << " distinct events";
    for (const EventId e : want) {
      const std::vector<Position> scanned = ScanPositions(db[0], e);
      const std::span<const Position> list = idx.Positions(0, e);
      ASSERT_EQ(std::vector<Position>(list.begin(), list.end()), scanned)
          << distinct << " distinct events, event " << e;
    }
  }
}

// A block over sorted distinct `events` must place every probe where
// std::lower_bound does: SeekSlot lands on the probe's slot when it is
// present and just below its insertion point (slot 0 below the minimum)
// when it is not.
void ExpectSlotsMatchLowerBound(const std::vector<EventId>& events,
                                const std::vector<EventId>& probes) {
  const InvertedIndex::SeqBlock block{events, {}, {}};
  for (const EventId e : probes) {
    const auto it = std::lower_bound(events.begin(), events.end(), e);
    const bool present = it != events.end() && *it == e;
    const size_t at = static_cast<size_t>(it - events.begin());
    const size_t below = at == 0 ? 0 : at - 1;
    ASSERT_EQ(block.SeekSlot(e), present ? at : below)
        << events.size() << " events, probe " << e;
  }
}

// The branch-free slot search against std::lower_bound on sorted distinct
// event lists of every length from 0 to 160, across the block builder's
// 64-event sort switch and past gazelle-like 138-event blocks. Probes are
// every present event, every value between two neighbours, 0, values below
// the minimum and above the maximum, and ids up to kNoEvent; they run on
// the block directly (also with the list shifted to the top of the id
// range) and through Positions, Count and Cursor of an index whose one
// sequence holds each event one to three times.
TEST(InvertedIndexProperty, FindSlotMatchesLowerBound) {
  Rng rng(1511);
  for (size_t length = 0; length <= 160; ++length) {
    std::vector<EventId> events;
    EventId next = 1 + static_cast<EventId>(rng.UniformInt(3));
    for (size_t k = 0; k < length; ++k) {
      events.push_back(next);
      next += 1 + static_cast<EventId>(rng.UniformInt(3));
    }
    std::vector<EventId> probes = {0, next};
    for (const EventId e : events) {
      probes.insert(probes.end(), {e - 1, e, e + 1});
    }
    // The same list ending just below kNoEvent.
    const EventId shift = kNoEvent - next;
    std::vector<EventId> high_events;
    std::vector<EventId> high_probes = {0, kNoEvent};
    for (const EventId e : events) high_events.push_back(e + shift);
    for (const EventId e : probes) high_probes.push_back(e + shift);
    probes.insert(probes.end(), {kNoEvent - 1, kNoEvent});

    if (length > 0) {
      ExpectSlotsMatchLowerBound(events, probes);
      ExpectSlotsMatchLowerBound(high_events, high_probes);
    }

    std::vector<EventId> stream;
    for (size_t k = 0; k < length; ++k) {
      stream.insert(stream.end(), 1 + k % 3, events[k]);
    }
    rng.Shuffle(&stream);
    std::vector<Sequence> sequences;
    sequences.emplace_back(stream);
    const SequenceDatabase db(std::move(sequences));
    const InvertedIndex idx(db);
    for (const EventId e : probes) {
      const bool present = std::binary_search(events.begin(), events.end(), e);
      const std::vector<Position> want = ScanPositions(db[0], e);
      ASSERT_EQ(want.empty(), !present);
      const std::span<const Position> got = idx.Positions(0, e);
      ASSERT_EQ(std::vector<Position>(got.begin(), got.end()), want)
          << length << " events, probe " << e;
      ASSERT_EQ(idx.Count(0, e), want.size());
      PositionCursor cursor = idx.Cursor(0, e);
      ASSERT_EQ(cursor.empty(), !present);
      ASSERT_EQ(cursor.NextAtOrAfter(0), present ? want[0] : kNoPosition);
    }
  }
}

#ifndef NDEBUG
// Satellite regression for the cursor contract hole: a DECREASING bound
// must trip the debug assertion instead of silently skipping positions.
TEST(InvertedIndexDeath, CursorRejectsDecreasingBounds) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABABABAB"});
  InvertedIndex idx(db);
  EXPECT_DEATH(
      {
        PositionCursor cursor = idx.Cursor(0, 0);
        cursor.NextAtOrAfter(5);
        cursor.NextAtOrAfter(2);  // decreasing: contract violation
      },
      "non-decreasing");
}

TEST(InvertedIndexDeath, CursorRejectsIncreasingBackwardBounds) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABABABAB"});
  InvertedIndex idx(db);
  EXPECT_DEATH(
      {
        PositionCursor cursor = idx.Cursor(0, 0);
        cursor.PrevBefore(2);
        cursor.PrevBefore(5);  // increasing: contract violation
      },
      "non-increasing");
}
#endif

}  // namespace
}  // namespace gsgrow
