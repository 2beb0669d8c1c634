#include "core/instance_growth.h"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/inverted_index.h"
#include "core/reference.h"
#include "core/sequence_database.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using testing::MakePattern;

TEST(RootInstances, AllOccurrencesInRightShiftOrder) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABA", "BAA"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  SupportSet set = RootInstances(idx, a);
  ASSERT_EQ(set.size(), 4u);
  EXPECT_TRUE(IsRightShiftSorted(set));
  EXPECT_EQ(set[0], (Instance{0, 0, 0}));
  EXPECT_EQ(set[1], (Instance{0, 2, 2}));
  EXPECT_EQ(set[2], (Instance{1, 1, 1}));
  EXPECT_EQ(set[3], (Instance{1, 2, 2}));
}

TEST(RootInstances, AbsentEventGivesEmptySet) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABA"});
  InvertedIndex idx(db);
  EXPECT_TRUE(RootInstances(idx, 99).empty());
}

TEST(GrowSupportSet, SimpleGrowth) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AABB"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet set = RootInstances(idx, a);
  SupportSet grown = GrowSupportSet(idx, set, b);
  ASSERT_EQ(grown.size(), 2u);
  EXPECT_EQ(grown[0], (Instance{0, 0, 2}));
  EXPECT_EQ(grown[1], (Instance{0, 1, 3}));
}

TEST(GrowSupportSet, BreaksOutOfSequenceWhenExhausted) {
  // Only one B: the first A gets it; the second A cannot extend; the growth
  // must also not wrap around into the next sequence's events.
  SequenceDatabase db = MakeDatabaseFromStrings({"AAB", "B"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet grown = GrowSupportSet(idx, RootInstances(idx, a), b);
  ASSERT_EQ(grown.size(), 1u);
  EXPECT_EQ(grown[0], (Instance{0, 0, 2}));
}

TEST(GrowSupportSet, NonOverlapWithinSequence) {
  // ABAB: two non-overlapping ABs.
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet grown = GrowSupportSet(idx, RootInstances(idx, a), b);
  ASSERT_EQ(grown.size(), 2u);
  EXPECT_EQ(grown[0], (Instance{0, 0, 1}));
  EXPECT_EQ(grown[1], (Instance{0, 2, 3}));
}

TEST(GrowSupportSet, LastPositionConstraintSkipsConsumedEvents) {
  // AAB B: first A takes first B (pos 2), second A must take pos 3.
  SequenceDatabase db = MakeDatabaseFromStrings({"AABB"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet grown = GrowSupportSet(idx, RootInstances(idx, a), b);
  EXPECT_EQ(grown[1].last, 3u);
}

TEST(GrowSupportSet, EmptyInputYieldsEmptyOutput) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB"});
  InvertedIndex idx(db);
  SupportSet empty;
  EXPECT_TRUE(GrowSupportSet(idx, empty, 0).empty());
}

// --- Cursor fast-path (GrowSupportSetInto) boundary cases. Each scenario
// is also cross-checked against the pre-cursor reference implementation,
// which must stay semantically identical. ---

TEST(GrowSupportSetInto, RunsOfOneInstancePerSequence) {
  // Every sequence contributes exactly one instance: each per-sequence run
  // opens a fresh cursor, issues a single query, and must not leak state
  // into the next run.
  SequenceDatabase db = MakeDatabaseFromStrings({"AB", "AB", "AB"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet base = RootInstances(idx, a);
  ASSERT_EQ(base.size(), 3u);
  SupportSet out;
  GrowSupportSetInto(idx, base, b, out);
  ASSERT_EQ(out.size(), 3u);
  for (SeqId i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i], (Instance{i, 0, 1}));
  }
  EXPECT_EQ(out, GrowSupportSetReference(idx, base, b));
}

TEST(GrowSupportSetInto, EventAbsentInMiddleSequence) {
  // B is absent from the middle sequence: its cursor is empty, the run is
  // skipped wholesale, and the later sequence still grows (cross-sequence
  // reset of cursor and floor).
  SequenceDatabase db = MakeDatabaseFromStrings({"AAB", "AAA", "BAB"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet base = RootInstances(idx, a);
  ASSERT_EQ(base.size(), 6u);
  SupportSet out;
  GrowSupportSetInto(idx, base, b, out);
  // Seq 0: first A takes B at 2, second A has none. Seq 1: none.
  // Seq 2: A at 1 takes B at 2 — the floor from seq 0 must not carry over.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Instance{0, 0, 2}));
  EXPECT_EQ(out[1], (Instance{2, 1, 2}));
  EXPECT_EQ(out, GrowSupportSetReference(idx, base, b));
}

TEST(GrowSupportSetInto, EventExhaustedMidRunSkipsRestOfRun) {
  // Four As but only two Bs: the cursor exhausts mid-run; the remaining
  // instances of the run must be skipped without touching the next
  // sequence, whose own positions start before the previous cursor's end.
  SequenceDatabase db = MakeDatabaseFromStrings({"AAAABB", "BA"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet base = RootInstances(idx, a);
  SupportSet out;
  GrowSupportSetInto(idx, base, b, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Instance{0, 0, 4}));
  EXPECT_EQ(out[1], (Instance{0, 1, 5}));
  EXPECT_EQ(out, GrowSupportSetReference(idx, base, b));
}

TEST(GrowSupportSetInto, ScratchBufferIsClearedAndReused) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet base = RootInstances(idx, a);
  // Pre-poison the scratch: stale contents must not survive.
  SupportSet scratch = {Instance{7, 7, 7}, Instance{8, 8, 8},
                        Instance{9, 9, 9}};
  GrowSupportSetInto(idx, base, b, scratch);
  ASSERT_EQ(scratch.size(), 2u);
  EXPECT_EQ(scratch[0], (Instance{0, 0, 1}));
  EXPECT_EQ(scratch[1], (Instance{0, 2, 3}));
  // Second growth through the same buffer: capacity is recycled, contents
  // replaced.
  GrowSupportSetInto(idx, base, a, scratch);
  EXPECT_EQ(scratch, GrowSupportSetReference(idx, base, a));
}

TEST(GrowSupportSetInto, CountsNextQueries) {
  // AABB: two As, each issuing exactly one successful query.
  SequenceDatabase db = MakeDatabaseFromStrings({"AABB", "AAA"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  SupportSet base = RootInstances(idx, a);
  ASSERT_EQ(base.size(), 5u);
  SupportSet out;
  uint64_t queries = 0;
  GrowSupportSetInto(idx, base, b, out, &queries);
  // Seq 0: 2 queries (both hit). Seq 1: B absent -> empty cursor, zero
  // queries (the run is skipped without searching).
  EXPECT_EQ(queries, 2u);
  // The counter accumulates across calls.
  GrowSupportSetInto(idx, base, b, out, &queries);
  EXPECT_EQ(queries, 4u);
}

TEST(GrowSupportSetInto, MatchesReferenceOnRandomDatabases) {
  Rng rng(555);
  for (int round = 0; round < 40; ++round) {
    SequenceDatabase db = testing::RandomDatabase(&rng, 4, 2, 30, 3);
    InvertedIndex idx(db);
    SupportSet scratch;  // reused across all growths of the round
    for (EventId root = 0; root < db.AlphabetSize(); ++root) {
      SupportSet set = RootInstances(idx, root);
      for (EventId e = 0; e < db.AlphabetSize(); ++e) {
        GrowSupportSetInto(idx, set, e, scratch);
        SupportSet expected = GrowSupportSetReference(idx, set, e);
        EXPECT_EQ(scratch, expected)
            << "round=" << round << " root=" << root << " e=" << e;
        EXPECT_TRUE(IsRightShiftSorted(scratch));
      }
      // Chain a growth to exercise multi-event paths.
      SupportSet grown = GrowSupportSet(idx, set, root);
      EXPECT_EQ(grown, GrowSupportSetReference(idx, set, root));
    }
  }
}

// --- Occurrence bound on append extensions (AppendOccurrenceBound). ---

TEST(AppendOccurrenceBound, SumsPerSequenceMinimumOfRunAndCount) {
  // <A> has runs n_0 = 2, n_1 = 1. B occurs once in seq 0 and three times
  // in seq 1: bound min(2,1) + min(1,3) = 2, which A ◦ B reaches. C occurs
  // only outside the support set's sequences.
  SequenceDatabase db = MakeDatabaseFromStrings({"AAB", "ABBB", "CC"});
  InvertedIndex idx(db);
  EventId a = db.dictionary().Lookup("A");
  EventId b = db.dictionary().Lookup("B");
  EventId c = db.dictionary().Lookup("C");
  SupportSet base = RootInstances(idx, a);
  const std::vector<EventId> all = {a, b, c};
  AppendOccurrenceBound bound;
  const auto bounds = [&] {
    return std::vector<uint64_t>(bound.bounds().begin(), bound.bounds().end());
  };
  std::span<const EventId> kept = bound.Filter(idx, base, all, 3);
  EXPECT_EQ(std::vector<EventId>(kept.begin(), kept.end()),
            std::vector<EventId>{a});
  EXPECT_EQ(bounds(), (std::vector<uint64_t>{3, 2, 0}));
  EXPECT_EQ(GrowSupportSet(idx, base, b).size(), 2u);
  // A later pass replaces every earlier bound.
  kept = bound.Filter(idx, RootInstances(idx, c), all, 1);
  EXPECT_EQ(std::vector<EventId>(kept.begin(), kept.end()),
            std::vector<EventId>{c});
  EXPECT_EQ(bounds(), (std::vector<uint64_t>{0, 0, 2}));
}

// Property: on random databases, for every node set reachable by growth
// (patterns up to length 3) and every event, the bound is exactly
// Σ_i min(n_i, count_i(e)) and never below the grown support; and at every
// threshold Filter keeps, in order, a subset of the candidates containing
// each event whose grown support reaches the threshold.
TEST(AppendOccurrenceBound, BoundsEveryGrowthOnRandomDatabases) {
  Rng rng(8675309);
  AppendOccurrenceBound bound;  // one scratch across all rounds
  uint64_t dropped = 0;
  for (int round = 0; round < 30; ++round) {
    const size_t alphabet = 3 + static_cast<size_t>(rng.UniformInt(6));
    SequenceDatabase db = testing::RandomDatabase(&rng, 5, 1, 25, alphabet);
    InvertedIndex idx(db);
    std::vector<EventId> all;
    for (EventId e = 0; e < db.AlphabetSize(); ++e) all.push_back(e);
    std::vector<SupportSet> frontier;
    for (EventId e : all) frontier.push_back(RootInstances(idx, e));
    for (int depth = 1; depth <= 3; ++depth) {
      std::vector<SupportSet> next;
      for (const SupportSet& set : frontier) {
        if (set.empty()) continue;
        std::vector<uint64_t> grown(all.size());
        for (EventId e : all) grown[e] = GrowSupportSet(idx, set, e).size();
        bound.Filter(idx, set, all, 1);
        for (EventId e : all) {
          uint64_t expected = 0;
          for (size_t k = 0; k < set.size();) {
            size_t end = k;
            while (end < set.size() && set[end].seq == set[k].seq) ++end;
            expected += std::min<uint64_t>(end - k, idx.Count(set[k].seq, e));
            k = end;
          }
          // all[e] == e, so bounds() is indexed by event.
          EXPECT_EQ(bound.bounds()[e], expected)
              << "round=" << round << " e=" << e;
          EXPECT_GE(bound.bounds()[e], grown[e])
              << "round=" << round << " e=" << e;
        }
        for (uint64_t threshold = 1; threshold <= set.size(); ++threshold) {
          std::span<const EventId> kept =
              bound.Filter(idx, set, all, threshold);
          dropped += all.size() - kept.size();
          EXPECT_TRUE(std::is_sorted(kept.begin(), kept.end()));
          for (EventId e : all) {
            if (grown[e] < threshold) continue;
            EXPECT_TRUE(std::binary_search(kept.begin(), kept.end(), e))
                << "round=" << round << " threshold=" << threshold
                << " e=" << e;
          }
        }
        if (depth < 3) {
          for (EventId e : all) next.push_back(GrowSupportSet(idx, set, e));
        }
      }
      frontier = std::move(next);
    }
  }
  // The filter dropped candidates, so the checks above had teeth.
  EXPECT_GT(dropped, 0u);
}

// Differential: on random databases, for every node set reachable by growth
// (patterns up to length 3), a random candidate list — a shuffled subset of
// the alphabet, at times with an event the index has never seen — and a
// random threshold: every kept candidate's child from Grow equals
// GrowSupportSetInto, with the same next() query count, and every dropped
// candidate's bound is below the threshold and equals Σ_i min(n_i,
// count_i(e)). Narrow rounds (alphabets up to 10) grow every node; wide
// rounds (alphabets of 40-150 events over sequences of up to 300 events)
// grow a few random children per node and draw short candidate lists as
// well as long ones, so blocks of over 64 events reach both intersections.
TEST(AppendOccurrenceBound, GrowMatchesInsgrowOnBothIntersections) {
  Rng rng(20091229);
  AppendOccurrenceBound growth;  // one scratch across all rounds
  uint64_t searched_runs = 0;
  uint64_t walked_runs = 0;
  uint64_t long_searched_runs = 0;
  uint64_t long_walked_runs = 0;
  uint64_t kept_total = 0;
  uint64_t dropped_total = 0;
  const auto check = [&](const InvertedIndex& idx, const SupportSet& set,
                         std::vector<EventId> candidates, int round) {
    rng.Shuffle(&candidates);
    const uint64_t threshold = 1 + rng.UniformInt(set.size());
    for (size_t k = 0; k < set.size(); ++k) {
      if (k > 0 && set[k].seq == set[k - 1].seq) continue;
      const size_t events = idx.EventsInSequence(set[k].seq).size();
      const bool probes =
          AppendOccurrenceBound::ProbesRun(candidates.size(), events);
      ++(probes ? searched_runs : walked_runs);
      if (events > 64) ++(probes ? long_searched_runs : long_walked_runs);
    }

    const std::span<const EventId> kept =
        growth.Filter(idx, set, candidates, threshold);
    ASSERT_EQ(growth.bounds().size(), candidates.size());
    // Stale contents must be cleared.
    std::vector<SupportSet> children(kept.size(), set);
    uint64_t queries = 0;
    growth.Grow(children, &queries);
    uint64_t expected_queries = 0;
    size_t j = 0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      uint64_t expected_bound = 0;
      for (size_t k = 0; k < set.size();) {
        size_t end = k;
        while (end < set.size() && set[end].seq == set[k].seq) ++end;
        expected_bound +=
            std::min<uint64_t>(end - k, idx.Count(set[k].seq, candidates[c]));
        k = end;
      }
      EXPECT_EQ(growth.bounds()[c], expected_bound)
          << "round=" << round << " e=" << candidates[c];
      if (j < kept.size() && kept[j] == candidates[c]) {
        EXPECT_GE(growth.bounds()[c], threshold);
        SupportSet expected;
        GrowSupportSetInto(idx, set, candidates[c], expected,
                           &expected_queries);
        EXPECT_EQ(children[j], expected)
            << "round=" << round << " e=" << candidates[c];
        ++j;
      } else {
        EXPECT_LT(growth.bounds()[c], threshold)
            << "round=" << round << " e=" << candidates[c];
        ++dropped_total;
      }
    }
    EXPECT_EQ(j, kept.size()) << "kept is not a subsequence";
    EXPECT_EQ(queries, expected_queries) << "round=" << round;
    kept_total += kept.size();
  };

  for (int round = 0; round < 30; ++round) {
    const size_t alphabet = 3 + static_cast<size_t>(rng.UniformInt(8));
    SequenceDatabase db = testing::RandomDatabase(&rng, 6, 1, 30, alphabet);
    InvertedIndex idx(db);
    std::vector<SupportSet> frontier;
    for (EventId e = 0; e < db.AlphabetSize(); ++e) {
      frontier.push_back(RootInstances(idx, e));
    }
    for (int depth = 1; depth <= 3; ++depth) {
      std::vector<SupportSet> next;
      for (const SupportSet& set : frontier) {
        if (set.empty()) continue;
        std::vector<EventId> candidates;
        for (EventId e = 0; e < db.AlphabetSize(); ++e) {
          if (rng.UniformInt(2) == 0) candidates.push_back(e);
        }
        if (rng.UniformInt(4) == 0) candidates.push_back(db.AlphabetSize());
        check(idx, set, std::move(candidates), round);
        if (depth < 3) {
          for (EventId e = 0; e < db.AlphabetSize(); ++e) {
            next.push_back(GrowSupportSet(idx, set, e));
          }
        }
      }
      frontier = std::move(next);
    }
  }

  for (int round = 0; round < 12; ++round) {
    const EventId alphabet = 40 + static_cast<EventId>(rng.UniformInt(111));
    std::vector<Sequence> sequences;
    for (int i = 0; i < 8; ++i) {
      std::vector<EventId> events(
          static_cast<size_t>(rng.UniformRange(20, 300)));
      for (EventId& e : events) {
        e = static_cast<EventId>(rng.UniformInt(alphabet));
      }
      sequences.emplace_back(std::move(events));
    }
    const SequenceDatabase db(std::move(sequences));
    const InvertedIndex idx(db);
    std::vector<SupportSet> frontier;
    for (int r = 0; r < 4; ++r) {
      frontier.push_back(RootInstances(
          idx, static_cast<EventId>(rng.UniformInt(db.AlphabetSize()))));
    }
    for (int depth = 1; depth <= 3; ++depth) {
      std::vector<SupportSet> next;
      for (const SupportSet& set : frontier) {
        if (set.empty()) continue;
        // Short lists (1-20 events) probe the long blocks; long lists walk.
        const size_t size =
            rng.UniformInt(2) == 0
                ? 1 + static_cast<size_t>(rng.UniformInt(20))
                : static_cast<size_t>(rng.UniformInt(db.AlphabetSize() + 1));
        std::vector<EventId> candidates;
        for (EventId e = 0; e < db.AlphabetSize(); ++e) {
          candidates.push_back(e);
        }
        rng.Shuffle(&candidates);
        candidates.resize(std::min(size, candidates.size()));
        if (rng.UniformInt(4) == 0) candidates.push_back(db.AlphabetSize());
        if (rng.UniformInt(4) == 0) candidates.push_back(kNoEvent);
        check(idx, set, std::move(candidates), 100 + round);
        if (depth < 3) {
          for (int c = 0; c < 3; ++c) {
            next.push_back(GrowSupportSet(
                idx, set,
                static_cast<EventId>(rng.UniformInt(db.AlphabetSize()))));
          }
        }
      }
      frontier = std::move(next);
    }
  }
  EXPECT_GT(searched_runs, 0u);
  EXPECT_GT(walked_runs, 0u);
  EXPECT_GT(long_searched_runs, 0u);
  EXPECT_GT(long_walked_runs, 0u);
  EXPECT_GT(kept_total, 0u);
  EXPECT_GT(dropped_total, 0u);
}

// Drives InsertIntervalCheck over every frequent pattern (min_sup 2, up to
// length 4) of random databases with small alphabets, so patterns repeat
// events and inserted events often equal a neighbour. Every (gap, event)
// verdict is checked against growing P' from scratch: admitted iff
// sup(P') == sup(P), and for admitted pairs, the LBCheck verdict iff the
// last landmarks of P''s leftmost support set equal P's. Each event enters
// as a candidate either through the count filter, which keeps the slots it
// resolves (an event it rejects must keep no support at any gap), or with
// its lists resolved on first use, absent events included. Gaps are
// visited in a shuffled order, so the lazy columns are built in every
// order, and the left rows are found past prefix-set sequences the node's
// support set has lost.
TEST(InsertIntervalCheck, MatchesRegrowthOnRandomDatabases) {
  Rng rng(31337);
  InsertIntervalCheck check;  // one scratch across all rounds
  uint64_t admitted = 0, rejected = 0, matched = 0, shifted = 0;
  uint64_t neighbour_admitted = 0, counted_admitted = 0, lazy_admitted = 0;
  uint64_t filtered_out = 0, absent_lazy = 0, stepped_over = 0;
  for (int round = 0; round < 40; ++round) {
    const size_t alphabet = 2 + static_cast<size_t>(rng.UniformInt(3));
    SequenceDatabase db = testing::RandomDatabase(&rng, 6, 1, 20, alphabet);
    InvertedIndex idx(db);
    std::vector<std::vector<EventId>> stack;
    for (EventId e = 0; e < db.AlphabetSize(); ++e) stack.push_back({e});
    while (!stack.empty()) {
      const std::vector<EventId> pattern = std::move(stack.back());
      stack.pop_back();
      std::vector<SupportSet> prefix_sets;
      for (size_t j = 1; j <= pattern.size(); ++j) {
        prefix_sets.push_back(ComputeSupportSet(
            idx, Pattern(std::vector<EventId>(pattern.begin(),
                                              pattern.begin() + j))));
      }
      const SupportSet& set = prefix_sets.back();
      if (set.size() < 2) continue;
      if (pattern.size() < 4) {
        for (EventId e = 0; e < db.AlphabetSize(); ++e) {
          std::vector<EventId> child = pattern;
          child.push_back(e);
          stack.push_back(std::move(child));
        }
      }
      check.Reset(idx, pattern, prefix_sets);
      // A prefix set holding a sequence below the node's last run that the
      // node's support set lost: the left-row search must step over it.
      bool skips_sequence = false;
      for (size_t c = 0; c + 1 < pattern.size(); ++c) {
        for (const Instance& inst : prefix_sets[c]) {
          skips_sequence =
              skips_sequence ||
              (inst.seq < set.back().seq &&
               std::none_of(set.begin(), set.end(), [&](const Instance& i) {
                 return i.seq == inst.seq;
               }));
        }
      }
      // candidate_of[e]: e's index in check.candidates(), or -1 when the
      // count filter rejected it.
      std::vector<int> candidate_of(db.AlphabetSize(), -1);
      std::vector<bool> counted(db.AlphabetSize(), false);
      const InvertedIndex::SeqBlock& first =
          *idx.seq_block(check.runs().front().first);
      for (EventId e = 0; e < db.AlphabetSize(); ++e) {
        const size_t k = first.SeekSlot(e);
        const int next = static_cast<int>(check.candidates().size());
        if (first.events[k] == e && rng.UniformInt(2) == 0) {
          counted[e] = true;
          if (check.AddCandidateIfCounted(e, static_cast<uint32_t>(k))) {
            candidate_of[e] = next;
          }
        } else {
          check.AddCandidate(e);
          candidate_of[e] = next;
          if (first.events[k] != e) ++absent_lazy;
        }
      }
      std::vector<size_t> gaps(pattern.size());
      for (size_t g = 0; g < gaps.size(); ++g) gaps[g] = g;
      for (size_t g = gaps.size(); g > 1; --g) {
        std::swap(gaps[g - 1], gaps[rng.UniformInt(g)]);
      }
      for (size_t gap : gaps) {
        for (EventId e = 0; e < db.AlphabetSize(); ++e) {
          const SupportSet grown =
              ComputeSupportSet(idx, Pattern(pattern).InsertAt(gap, e));
          std::string where = "round=" + std::to_string(round) + " pattern=";
          for (EventId p : pattern) where += std::to_string(p) + ",";
          where += " gap=" + std::to_string(gap) + " e=" + std::to_string(e);
          if (candidate_of[e] < 0) {
            // The count filter is sound: a rejected event keeps no support.
            ASSERT_LT(grown.size(), set.size()) << where;
            ++filtered_out;
            continue;
          }
          const size_t j = static_cast<size_t>(candidate_of[e]);
          ASSERT_EQ(check.candidates()[j], e) << where;
          uint64_t queries = 0, steps = 0;
          const bool admits = check.AdmitsCandidate(gap, j, &queries);
          ASSERT_EQ(admits, grown.size() == set.size()) << where;
          if (!admits) {
            ++rejected;
            continue;
          }
          ++admitted;
          (counted[e] ? counted_admitted : lazy_admitted)++;
          if (skips_sequence && gap > 0) ++stepped_over;
          const bool neighbour =
              e == pattern[gap] || (gap > 0 && e == pattern[gap - 1]);
          if (neighbour) ++neighbour_admitted;
          bool same_last = true;
          for (size_t k = 0; k < set.size(); ++k) {
            ASSERT_EQ(grown[k].seq, set[k].seq) << where;
            same_last = same_last && grown[k].last == set[k].last;
          }
          const bool match = check.LastLandmarksMatch(&queries, &steps);
          ASSERT_EQ(match, same_last) << where;
          EXPECT_GT(steps, 0u) << where;
          (match ? matched : shifted)++;
        }
      }
    }
  }
  // Every verdict occurred, so the checks above had teeth.
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(matched, 0u);
  EXPECT_GT(shifted, 0u);
  EXPECT_GT(neighbour_admitted, 0u);
  EXPECT_GT(counted_admitted, 0u);
  EXPECT_GT(lazy_admitted, 0u);
  EXPECT_GT(filtered_out, 0u);
  EXPECT_GT(absent_lazy, 0u);
  EXPECT_GT(stepped_over, 0u);
}

TEST(ComputeSupportSet, EmptyPattern) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB"});
  InvertedIndex idx(db);
  EXPECT_TRUE(ComputeSupportSet(idx, Pattern()).empty());
  EXPECT_EQ(ComputeSupport(idx, Pattern()), 0u);
}

TEST(ComputeSupportSet, PatternLongerThanAnySequence) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB"});
  InvertedIndex idx(db);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "ABAB")), 0u);
}

TEST(ComputeSupportSet, PatternWithAbsentEvent) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AB", "CD"});
  InvertedIndex idx(db);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "AD")), 0u);
}

TEST(ComputeSupportSet, SingleEventSupportIsTotalCount) {
  SequenceDatabase db = MakeDatabaseFromStrings({"AABA", "BA"});
  InvertedIndex idx(db);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "A")), 4u);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "B")), 2u);
}

TEST(ComputeSupportSet, RepeatedEventPattern) {
  // AAAA: overlap is per pattern index (Definition 2.3), so instances of AA
  // may chain: (0,1), (1,2), (2,3) are pairwise non-overlapping -> sup 3.
  SequenceDatabase db = MakeDatabaseFromStrings({"AAAA"});
  InvertedIndex idx(db);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "AA")), 3u);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "AAA")), 2u);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "AAAA")), 1u);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "AAAAA")), 0u);
}

TEST(ComputeSupportSet, OverCountingExampleFromPaperSection2) {
  // SeqDB = {AABBCC}: the naive all-instances count of AB would be 4;
  // repetitive support is 2.
  SequenceDatabase db = MakeDatabaseFromStrings({"AABBCC"});
  InvertedIndex idx(db);
  EXPECT_EQ(EnumerateLandmarks(db[0], MakePattern(db, "AB")).size(), 4u);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "AB")), 2u);
  EXPECT_EQ(ComputeSupport(idx, MakePattern(db, "ABC")), 2u);
}

TEST(ComputeFullSupportSet, MatchesCompressedTriples) {
  SequenceDatabase db =
      MakeDatabaseFromStrings({"ABCACBDDB", "ACDBACADD"});
  InvertedIndex idx(db);
  for (const char* pat : {"A", "AB", "ACB", "ACA", "AAD", "ABD", "ACAD"}) {
    Pattern p = MakePattern(db, pat);
    SupportSet triples = ComputeSupportSet(idx, p);
    std::vector<FullInstance> full = ComputeFullSupportSet(idx, p);
    ASSERT_EQ(triples.size(), full.size()) << pat;
    for (size_t k = 0; k < full.size(); ++k) {
      EXPECT_EQ(triples[k].seq, full[k].seq) << pat;
      EXPECT_EQ(triples[k].first, full[k].landmark.front()) << pat;
      EXPECT_EQ(triples[k].last, full[k].landmark.back()) << pat;
      EXPECT_EQ(full[k].landmark.size(), p.size()) << pat;
    }
  }
}

TEST(ComputeFullSupportSet, LandmarksStrictlyIncrease) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABABABAB"});
  InvertedIndex idx(db);
  for (const FullInstance& inst :
       ComputeFullSupportSet(idx, MakePattern(db, "ABA"))) {
    for (size_t j = 1; j < inst.landmark.size(); ++j) {
      EXPECT_LT(inst.landmark[j - 1], inst.landmark[j]);
    }
  }
}

TEST(PerSequenceSupport, DecomposesTotalSupport) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABAB", "AB", "BA"});
  InvertedIndex idx(db);
  Pattern ab = MakePattern(db, "AB");
  std::vector<uint32_t> per_seq = PerSequenceSupport(idx, ab);
  ASSERT_EQ(per_seq.size(), 3u);
  EXPECT_EQ(per_seq[0], 2u);
  EXPECT_EQ(per_seq[1], 1u);
  EXPECT_EQ(per_seq[2], 0u);
  uint64_t total = 0;
  for (uint32_t c : per_seq) total += c;
  EXPECT_EQ(total, ComputeSupport(idx, ab));
}

}  // namespace
}  // namespace gsgrow
