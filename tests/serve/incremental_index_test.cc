// Differential suite for serve/incremental_index.h: after any interleaving
// of new-sequence appends and extensions of existing sequences, a snapshot
// must present EXACTLY the query surface of a from-scratch batch
// InvertedIndex over the concatenated database — positions, postings,
// counts, present events — and the miners must produce byte-identical
// output (patterns, supports, annotations) on either index.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/gsgrow.h"
#include "core/inverted_index.h"
#include "core/sequence_database.h"
#include "core/topk.h"
#include "serve/incremental_index.h"
#include "serve/mining_service.h"
#include "util/arena.h"
#include "util/rng.h"
#include "test_util.h"

namespace gsgrow {
namespace {

std::vector<Position> PositionsVec(const InvertedIndex& index, SeqId i,
                                   EventId e) {
  const auto span = index.Positions(i, e);
  return {span.begin(), span.end()};
}

// Pins the full public query surface of `got` to `want`.
void ExpectSameIndex(const InvertedIndex& want, const InvertedIndex& got) {
  ASSERT_EQ(want.alphabet_size(), got.alphabet_size());
  ASSERT_EQ(want.num_sequences(), got.num_sequences());
  EXPECT_EQ(want.present_events(), got.present_events());
  for (SeqId i = 0; i < want.num_sequences(); ++i) {
    EXPECT_EQ(want.SequenceLength(i), got.SequenceLength(i)) << "seq " << i;
    const auto want_events = want.EventsInSequence(i);
    const auto got_events = got.EventsInSequence(i);
    ASSERT_EQ(std::vector<EventId>(want_events.begin(), want_events.end()),
              std::vector<EventId>(got_events.begin(), got_events.end()))
        << "seq " << i;
    for (EventId e : want_events) {
      EXPECT_EQ(PositionsVec(want, i, e), PositionsVec(got, i, e))
          << "seq " << i << " event " << e;
      EXPECT_EQ(want.Count(i, e), got.Count(i, e));
    }
  }
  for (EventId e = 0; e < want.alphabet_size(); ++e) {
    EXPECT_EQ(want.TotalCount(e), got.TotalCount(e)) << "event " << e;
    const auto want_post = want.Postings(e);
    const auto got_post = got.Postings(e);
    ASSERT_EQ(std::vector<SeqId>(want_post.begin(), want_post.end()),
              std::vector<SeqId>(got_post.begin(), got_post.end()))
        << "event " << e;
  }
}

// Batch index over the mirror state the incremental index should match.
InvertedIndex BatchIndex(const std::vector<std::vector<EventId>>& mirror) {
  std::vector<Sequence> sequences;
  sequences.reserve(mirror.size());
  for (const auto& events : mirror) sequences.emplace_back(events);
  return InvertedIndex(SequenceDatabase(std::move(sequences)));
}

TEST(IncrementalIndex, EmptySnapshot) {
  IncrementalInvertedIndex incremental;
  InvertedIndex snapshot = incremental.Snapshot();
  EXPECT_EQ(snapshot.num_sequences(), 0u);
  EXPECT_EQ(snapshot.alphabet_size(), 0u);
  EXPECT_TRUE(snapshot.present_events().empty());
}

TEST(IncrementalIndex, MatchesBatchOnPaperExample) {
  // Fig. 1: S1 = AABCDABB, S2 = ABCD (ids A=0 B=1 C=2 D=3).
  IncrementalInvertedIndex incremental;
  const std::vector<EventId> s1 = {0, 0, 1, 2, 3, 0, 1, 1};
  const std::vector<EventId> s2 = {0, 1, 2, 3};
  EXPECT_EQ(incremental.AddSequence(s1), 0u);
  EXPECT_EQ(incremental.AddSequence(s2), 1u);
  ExpectSameIndex(BatchIndex({s1, s2}), incremental.Snapshot());
}

TEST(IncrementalIndex, ExtensionReFreezesOnlyTheTouchedSequence) {
  IncrementalInvertedIndex incremental;
  incremental.AddSequence(std::vector<EventId>{0, 1, 2});
  incremental.AddSequence(std::vector<EventId>{2, 2, 1});
  incremental.Snapshot();
  EXPECT_EQ(incremental.dirty_sequences(), 0u);
  EXPECT_EQ(incremental.dirty_events(), 0u);

  // Extending sequence 0 with one old and one NEW event dirties exactly
  // that sequence plus the two touched events.
  incremental.AppendToSequence(0, std::vector<EventId>{1, 7});
  EXPECT_EQ(incremental.dirty_sequences(), 1u);
  EXPECT_EQ(incremental.dirty_events(), 2u);
  ExpectSameIndex(BatchIndex({{0, 1, 2, 1, 7}, {2, 2, 1}}),
                  incremental.Snapshot());
}

TEST(IncrementalIndex, SnapshotsAreImmutableUnderLaterAppends) {
  IncrementalInvertedIndex incremental;
  incremental.AddSequence(std::vector<EventId>{0, 1, 0, 1});
  InvertedIndex before = incremental.Snapshot();
  const uint64_t epoch_before = incremental.epoch();

  incremental.AppendToSequence(0, std::vector<EventId>{0, 1});
  incremental.AddSequence(std::vector<EventId>{1, 1});
  InvertedIndex after = incremental.Snapshot();

  EXPECT_GT(incremental.epoch(), epoch_before);
  // The old snapshot still answers for the old state...
  ExpectSameIndex(BatchIndex({{0, 1, 0, 1}}), before);
  // ...and the new one for the new state.
  ExpectSameIndex(BatchIndex({{0, 1, 0, 1, 0, 1}, {1, 1}}), after);
}

TEST(IncrementalIndex, EpochIsADataVersion) {
  IncrementalInvertedIndex incremental;
  incremental.AddSequence(std::vector<EventId>{0});
  incremental.Snapshot();
  const uint64_t epoch = incremental.epoch();
  incremental.Snapshot();  // nothing new to observe
  incremental.Snapshot();
  EXPECT_EQ(incremental.epoch(), epoch);
  incremental.AppendToSequence(0, std::vector<EventId>{1});
  incremental.Snapshot();
  EXPECT_EQ(incremental.epoch(), epoch + 1);
}

TEST(IncrementalIndex, EmptySequencesMatchBatch) {
  IncrementalInvertedIndex incremental;
  incremental.AddSequence(std::vector<EventId>{});
  incremental.AddSequence(std::vector<EventId>{3, 3});
  incremental.AddSequence(std::vector<EventId>{});
  ExpectSameIndex(BatchIndex({{}, {3, 3}, {}}), incremental.Snapshot());
}

// The acceptance differential: randomized interleaving of adds and
// extensions, snapshot after every burst, index AND mined output compared
// against a fresh batch build of the concatenated database.
TEST(IncrementalIndex, RandomizedDifferentialWithMining) {
  Rng rng(20260731);
  IncrementalInvertedIndex incremental;
  std::vector<std::vector<EventId>> mirror;
  constexpr size_t kBursts = 24;
  constexpr size_t kOpsPerBurst = 12;
  constexpr uint64_t kAlphabet = 6;

  for (size_t burst = 0; burst < kBursts; ++burst) {
    for (size_t op = 0; op < kOpsPerBurst; ++op) {
      std::vector<EventId> events;
      const size_t len = static_cast<size_t>(rng.UniformInt(7));
      for (size_t i = 0; i < len; ++i) {
        events.push_back(static_cast<EventId>(rng.UniformInt(kAlphabet)));
      }
      if (!mirror.empty() && rng.Bernoulli(0.4)) {
        const SeqId target =
            static_cast<SeqId>(rng.UniformInt(mirror.size()));
        incremental.AppendToSequence(target, events);
        mirror[target].insert(mirror[target].end(), events.begin(),
                              events.end());
      } else {
        const SeqId seq = incremental.AddSequence(events);
        ASSERT_EQ(seq, mirror.size());
        mirror.push_back(std::move(events));
      }
    }
    InvertedIndex snapshot = incremental.Snapshot();
    InvertedIndex batch = BatchIndex(mirror);
    ExpectSameIndex(batch, snapshot);

    // Mining must agree bit for bit: closed with full Table-I annotations
    // (annotations exercise cursor replay over the snapshot), all-frequent,
    // and top-K.
    MinerOptions options;
    options.min_support = 3;
    options.semantics = SemanticsOptions::All(/*window_width=*/5,
                                              /*min_gap=*/0, /*max_gap=*/3);
    MiningResult closed_snapshot = MineClosedFrequent(snapshot, options);
    MiningResult closed_batch = MineClosedFrequent(batch, options);
    ASSERT_EQ(closed_snapshot.patterns, closed_batch.patterns)
        << "closed mining diverged at burst " << burst;

    options.semantics = SemanticsOptions{};
    options.max_pattern_length = 4;
    MiningResult all_snapshot = MineAllFrequent(snapshot, options);
    MiningResult all_batch = MineAllFrequent(batch, options);
    ASSERT_EQ(all_snapshot.patterns, all_batch.patterns)
        << "all-frequent mining diverged at burst " << burst;
  }

  MinerOptions topk;
  topk.k = 8;
  topk.min_length = 2;
  EXPECT_EQ(MineTopKClosed(incremental.Snapshot(), topk).patterns,
            MineTopKClosed(BatchIndex(mirror), topk).patterns);
}

// SequenceEvents is how the serving layer reads its corpus back (the
// checkpoint writer spills through it): the frozen block scattered back by
// position, then the unfrozen tail — exact at every point between
// snapshots, for sequences frozen, partly frozen, and never frozen.
TEST(IncrementalIndex, SequenceEventsRebuildFrozenBlockPlusTail) {
  Rng rng(20261019);
  IncrementalInvertedIndex incremental;
  std::vector<std::vector<EventId>> mirror;
  std::vector<EventId> events_out;
  for (int op = 0; op < 200; ++op) {
    std::vector<EventId> events;
    const size_t len = static_cast<size_t>(rng.UniformInt(7));
    for (size_t i = 0; i < len; ++i) {
      events.push_back(static_cast<EventId>(rng.UniformInt(9)));
    }
    if (!mirror.empty() && rng.Bernoulli(0.5)) {
      const SeqId target = static_cast<SeqId>(rng.UniformInt(mirror.size()));
      incremental.AppendToSequence(target, events);
      mirror[target].insert(mirror[target].end(), events.begin(),
                            events.end());
    } else {
      incremental.AddSequence(events);
      mirror.push_back(std::move(events));
    }
    if (rng.Bernoulli(0.2)) incremental.Snapshot();
    for (SeqId seq = 0; seq < mirror.size(); ++seq) {
      incremental.SequenceEvents(seq, &events_out);
      ASSERT_EQ(events_out, mirror[seq]) << "op " << op << " seq " << seq;
    }
  }
}

// Sharing contract: a sequence untouched between snapshots keeps its frozen
// block pointer-identical across epochs — the delta freeze rebuilds only
// dirty sequences.
TEST(IncrementalIndex, CleanBlocksArePointerSharedAcrossEpochs) {
  IncrementalInvertedIndex incremental;
  std::vector<EventId> s0;
  for (int i = 0; i < 300; ++i) s0.push_back(static_cast<EventId>(i % 3));
  incremental.AddSequence(s0);
  incremental.AddSequence(std::vector<EventId>{0, 1, 2});
  InvertedIndex before = incremental.Snapshot();
  ASSERT_NE(before.seq_block(0), nullptr);

  // Touch ONLY sequence 1; sequence 0's block must be shared, not re-frozen.
  incremental.AppendToSequence(1, std::vector<EventId>{2, 2});
  InvertedIndex after = incremental.Snapshot();
  EXPECT_EQ(before.seq_block(0), after.seq_block(0))
      << "clean block was re-frozen";
  EXPECT_NE(before.seq_block(1), after.seq_block(1))
      << "dirty block was not re-frozen";
}

// The interleaved-append differential with longer appends (position lists
// of dozens of entries): snapshots of the plain position-list encoding must
// match a batch build exactly.
TEST(IncrementalIndex, PlainEncodingMatchesBatch) {
  Rng rng(40111);
  IncrementalInvertedIndex incremental;
  std::vector<std::vector<EventId>> mirror;
  for (size_t burst = 0; burst < 6; ++burst) {
    for (size_t op = 0; op < 10; ++op) {
      std::vector<EventId> events;
      const size_t len = static_cast<size_t>(rng.UniformInt(40));
      for (size_t i = 0; i < len; ++i) {
        events.push_back(static_cast<EventId>(rng.UniformInt(4)));
      }
      if (!mirror.empty() && rng.Bernoulli(0.4)) {
        const SeqId target =
            static_cast<SeqId>(rng.UniformInt(mirror.size()));
        incremental.AppendToSequence(target, events);
        mirror[target].insert(mirror[target].end(), events.begin(),
                              events.end());
      } else {
        incremental.AddSequence(events);
        mirror.push_back(std::move(events));
      }
    }
    InvertedIndex snapshot = incremental.Snapshot();
    std::vector<Sequence> sequences;
    for (const auto& events : mirror) sequences.emplace_back(events);
    InvertedIndex batch(SequenceDatabase(std::move(sequences)));
    ExpectSameIndex(batch, snapshot);
  }
}

// Freeze paths of a sequence that is already frozen: the new block is the
// old block's lists followed by the tail's positions.
TEST(IncrementalIndex, ExtendFrozenWithHeldAndNewEvents) {
  IncrementalInvertedIndex incremental;
  incremental.AddSequence(std::vector<EventId>{2, 0, 2});
  incremental.AddSequence(std::vector<EventId>{1});
  incremental.Snapshot();
  // Event 2 is held, event 1 is new to the sequence (and lands between the
  // held events in id order), event 5 is new to the alphabet.
  incremental.AppendToSequence(0, std::vector<EventId>{2, 1, 5, 0});
  ExpectSameIndex(BatchIndex({{2, 0, 2, 2, 1, 5, 0}, {1}}),
                  incremental.Snapshot());
  incremental.AppendToSequence(1, std::vector<EventId>{1, 1});
  ExpectSameIndex(BatchIndex({{2, 0, 2, 2, 1, 5, 0}, {1, 1, 1}}),
                  incremental.Snapshot());
}

TEST(IncrementalIndex, SeveralExtendsBetweenSnapshots) {
  IncrementalInvertedIndex incremental;
  incremental.AddSequence(std::vector<EventId>{0, 1});
  incremental.Snapshot();
  incremental.AppendToSequence(0, std::vector<EventId>{1});
  incremental.AppendToSequence(0, std::vector<EventId>{3, 0});
  incremental.AddSequence(std::vector<EventId>{3});
  incremental.AppendToSequence(1, std::vector<EventId>{0});
  incremental.AppendToSequence(0, std::vector<EventId>{1, 3});
  EXPECT_EQ(incremental.dirty_sequences(), 2u);
  ExpectSameIndex(BatchIndex({{0, 1, 1, 3, 0, 1, 3}, {3, 0}}),
                  incremental.Snapshot());
  // A never-frozen sequence extended several times before its first freeze.
  incremental.AddSequence(std::vector<EventId>{4});
  incremental.AppendToSequence(2, std::vector<EventId>{4, 0});
  incremental.AppendToSequence(2, std::vector<EventId>{4});
  ExpectSameIndex(BatchIndex({{0, 1, 1, 3, 0, 1, 3}, {3, 0}, {4, 4, 0, 4}}),
                  incremental.Snapshot());
}

TEST(IncrementalIndex, EmptyExtendChangesNothing) {
  IncrementalInvertedIndex incremental;
  incremental.AddSequence(std::vector<EventId>{1, 0, 1});
  InvertedIndex before = incremental.Snapshot();
  const uint64_t epoch = incremental.epoch();
  incremental.AppendToSequence(0, std::vector<EventId>{});
  EXPECT_EQ(incremental.dirty_sequences(), 0u);
  EXPECT_FALSE(incremental.pending_epoch_advance());
  InvertedIndex after = incremental.Snapshot();
  EXPECT_EQ(incremental.epoch(), epoch);
  EXPECT_EQ(before.seq_block(0), after.seq_block(0));
  ExpectSameIndex(BatchIndex({{1, 0, 1}}), after);
}

// Memory follows the live index, not the epoch count: 2,000 epochs of a
// new sequence plus an extension of a random old one, holding only the
// newest view. Superseded blocks and postings must not pin their arenas:
// after every snapshot the writer reserves at most twice its live bytes,
// and the live bytes are the view's content plus per-array overhead.
TEST(IncrementalIndex, ReservedBytesTrackLiveBytes) {
  Rng rng(20261019);
  IncrementalInvertedIndex incremental;
  std::vector<std::vector<EventId>> mirror;
  const auto random_events = [&rng](size_t max_len) {
    std::vector<EventId> events(1 + rng.UniformInt(max_len));
    for (EventId& e : events) e = static_cast<EventId>(rng.UniformInt(40));
    return events;
  };
  // Per-array overhead a live byte count may add to MemoryUsage(): a block
  // header and the grain padding / red zone of its three arrays, and of an
  // event's two postings arrays.
  constexpr size_t kPerArray = Arena::kGrain + Arena::kRedZoneBytes;
  constexpr size_t kPerBlock =
      Arena::Footprint(sizeof(InvertedIndex::SeqBlock)) + 3 * kPerArray;
  InvertedIndex view;
  for (int epoch = 0; epoch < 2000; ++epoch) {
    std::vector<EventId> added = random_events(12);
    incremental.AddSequence(added);
    mirror.push_back(std::move(added));
    const SeqId target = static_cast<SeqId>(rng.UniformInt(mirror.size()));
    const std::vector<EventId> extension = random_events(4);
    incremental.AppendToSequence(target, extension);
    mirror[target].insert(mirror[target].end(), extension.begin(),
                          extension.end());
    view = incremental.Snapshot();

    const size_t live = incremental.live_bytes();
    const size_t content = view.MemoryUsage();
    const size_t overhead = view.num_sequences() * kPerBlock +
                            view.alphabet_size() * 2 * kPerArray;
    ASSERT_LE(incremental.reserved_bytes(), 2 * live) << "epoch " << epoch;
    ASSERT_GE(live, content) << "epoch " << epoch;
    ASSERT_LE(live, content + overhead) << "epoch " << epoch;
  }
  ExpectSameIndex(BatchIndex(mirror), view);
}

// Publishing a small delta costs the delta: after one 5-event extension of
// a 5,000-sequence index, the next snapshot's arena holds exactly the
// rebuilt block plus a one-entry postings array per event new to the
// sequence — no 64 KB chunk floor, no whole-list postings copy.
TEST(IncrementalIndex, SmallDeltaSnapshotAllocatesOnlyTheDelta) {
  Rng rng(42);
  IncrementalInvertedIndex incremental;
  std::vector<std::vector<EventId>> mirror;
  for (int i = 0; i < 5000; ++i) {
    std::vector<EventId> events(20);
    for (EventId& e : events) e = static_cast<EventId>(rng.UniformInt(2000));
    incremental.AddSequence(events);
    mirror.push_back(std::move(events));
  }
  incremental.Snapshot();
  const size_t before = incremental.reserved_bytes();

  constexpr SeqId kTarget = 17;
  const std::vector<EventId> extension = {3, 3, 1999, mirror[kTarget][0], 7};
  incremental.AppendToSequence(kTarget, extension);
  mirror[kTarget].insert(mirror[kTarget].end(), extension.begin(),
                         extension.end());
  const InvertedIndex view = incremental.Snapshot();

  const InvertedIndex::SeqBlock& block = *view.seq_block(kTarget);
  const std::vector<EventId>& events = mirror[kTarget];
  const auto extended_at = events.end() - extension.size();
  size_t gained = 0;  // events the extension adds to the sequence
  for (const EventId e : std::vector<EventId>{3, 1999, 7}) {
    if (std::find(events.begin(), extended_at, e) == extended_at) ++gained;
  }
  EXPECT_EQ(incremental.reserved_bytes() - before,
            block.Footprint() + gained * Arena::ArrayFootprint<SeqId>(1));
  EXPECT_LT(incremental.reserved_bytes() - before, size_t{2048});
  ExpectSameIndex(BatchIndex(mirror), view);
}

void ExpectSameDelta(const EpochDelta& want, const EpochDelta& got) {
  EXPECT_EQ(want.epoch, got.epoch);
  EXPECT_EQ(want.advanced, got.advanced);
  EXPECT_EQ(want.events, got.events);
  EXPECT_EQ(want.appended_seqs, got.appended_seqs);
  EXPECT_EQ(want.new_sequences, got.new_sequences);
}

// The bulk load (AddCorpus) is the same index as one AddSequence per
// sequence: the same blocks, postings, totals and present events, the same
// epoch and first EpochDelta, and the same arena bytes (both freeze the
// corpus into one exactly sized arena). Then 200 seeded epochs of new
// sequences and extensions keep the two identical while the extensions
// supersede most bulk-frozen blocks, so survivors are relocated out of the
// bulk arena on the way; reserved bytes stay within twice the live bytes.
TEST(IncrementalIndex, AddCorpusMatchesPerSequenceAdds) {
  Rng rng(424242);
  const auto random_events = [&rng](size_t max_len) {
    std::vector<EventId> events(rng.UniformInt(max_len + 1));
    // Odd ids only below 80: the even ids stay absent from the alphabet.
    for (EventId& e : events) {
      e = static_cast<EventId>(2 * rng.UniformInt(40) + 1);
    }
    return events;
  };
  std::vector<std::vector<EventId>> mirror;
  std::vector<Sequence> corpus;
  for (int i = 0; i < 150; ++i) {
    mirror.push_back(random_events(i % 10 == 0 ? 0 : 30));
    corpus.emplace_back(mirror.back());
  }
  IncrementalInvertedIndex bulk;
  IncrementalInvertedIndex single;
  bulk.AddCorpus(corpus, SequenceDatabase(corpus).AlphabetSize());
  for (const Sequence& s : corpus) single.AddSequence(s.events());
  EXPECT_EQ(bulk.num_sequences(), single.num_sequences());
  EXPECT_EQ(bulk.alphabet_size(), single.alphabet_size());
  EXPECT_EQ(bulk.total_events(), single.total_events());
  EXPECT_EQ(bulk.dirty_events(), single.dirty_events());
  EXPECT_EQ(bulk.dirty_sequences(), 0u);
  EXPECT_TRUE(bulk.pending_epoch_advance());
  for (SeqId i = 0; i < corpus.size(); ++i) {
    std::vector<EventId> events;
    bulk.SequenceEvents(i, &events);
    EXPECT_EQ(events, mirror[i]) << "seq " << i;
    EXPECT_EQ(bulk.SequenceLength(i), single.SequenceLength(i));
  }

  EpochDelta bulk_delta;
  EpochDelta single_delta;
  InvertedIndex bulk_view = bulk.Snapshot(&bulk_delta);
  InvertedIndex single_view = single.Snapshot(&single_delta);
  ExpectSameDelta(single_delta, bulk_delta);
  EXPECT_EQ(bulk_delta.new_sequences, corpus.size());
  EXPECT_EQ(bulk_delta.events, bulk_view.present_events());
  EXPECT_TRUE(bulk_delta.appended_seqs.empty());
  EXPECT_EQ(bulk.epoch(), single.epoch());
  ExpectSameIndex(single_view, bulk_view);
  ExpectSameIndex(BatchIndex(mirror), bulk_view);
  EXPECT_EQ(bulk.live_bytes(), single.live_bytes());
  EXPECT_EQ(bulk.reserved_bytes(), single.reserved_bytes());
  EXPECT_EQ(bulk_view.MemoryUsage(), single_view.MemoryUsage());
  for (SeqId i = 0; i < corpus.size(); ++i) {
    if (mirror[i].empty()) {
      EXPECT_EQ(bulk_view.seq_block(i), nullptr);
      continue;
    }
    EXPECT_EQ(bulk_view.seq_block(i)->Footprint(),
              single_view.seq_block(i)->Footprint());
  }

  for (int epoch = 0; epoch < 200; ++epoch) {
    const std::vector<EventId> added = random_events(12);
    bulk.AddSequence(added);
    single.AddSequence(added);
    mirror.push_back(added);
    const SeqId target = static_cast<SeqId>(rng.UniformInt(mirror.size()));
    const std::vector<EventId> extension = random_events(4);
    bulk.AppendToSequence(target, extension);
    single.AppendToSequence(target, extension);
    mirror[target].insert(mirror[target].end(), extension.begin(),
                          extension.end());
    bulk_view = bulk.Snapshot(&bulk_delta);
    single_view = single.Snapshot(&single_delta);
    ExpectSameDelta(single_delta, bulk_delta);
    ExpectSameIndex(single_view, bulk_view);
    ASSERT_EQ(bulk.live_bytes(), single.live_bytes()) << "epoch " << epoch;
    ASSERT_EQ(bulk.reserved_bytes(), single.reserved_bytes())
        << "epoch " << epoch;
    ASSERT_LE(bulk.reserved_bytes(), 2 * bulk.live_bytes())
        << "epoch " << epoch;
  }
  ExpectSameIndex(BatchIndex(mirror), bulk_view);
}

TEST(IncrementalIndex, AddCorpusOfEmptySequencesHasNoArena) {
  IncrementalInvertedIndex bulk;
  bulk.AddCorpus(std::vector<Sequence>(3), 0);
  EXPECT_EQ(bulk.num_sequences(), 3u);
  EXPECT_EQ(bulk.reserved_bytes(), 0u);
  EpochDelta delta;
  const InvertedIndex view = bulk.Snapshot(&delta);
  EXPECT_EQ(delta.epoch, 1u);
  EXPECT_TRUE(delta.advanced);
  EXPECT_EQ(delta.new_sequences, 3u);
  EXPECT_TRUE(delta.events.empty());
  ExpectSameIndex(BatchIndex({{}, {}, {}}), view);
  bulk.AppendToSequence(1, std::vector<EventId>{4, 4});
  ExpectSameIndex(BatchIndex({{}, {4, 4}, {}}), bulk.Snapshot());
}

// The same bulk load after a snapshot of the still-empty index, which has
// advanced the epoch to 1 already: it still matches one AddSequence per
// sequence taken after that snapshot.
TEST(IncrementalIndex, AddCorpusAfterAnEmptySnapshotMatchesPerSequenceAdds) {
  const std::vector<std::vector<EventId>> rows = {
      {3, 1, 3}, {}, {1, 5}, {5, 5, 5, 0}};
  std::vector<Sequence> corpus(rows.begin(), rows.end());
  IncrementalInvertedIndex bulk;
  IncrementalInvertedIndex single;
  EXPECT_EQ(bulk.Snapshot().num_sequences(), 0u);
  EXPECT_EQ(single.Snapshot().num_sequences(), 0u);
  ASSERT_EQ(bulk.epoch(), 1u);
  bulk.AddCorpus(corpus, SequenceDatabase(corpus).AlphabetSize());
  for (const Sequence& s : corpus) single.AddSequence(s.events());
  EXPECT_TRUE(bulk.pending_epoch_advance());
  EpochDelta bulk_delta;
  EpochDelta single_delta;
  const InvertedIndex bulk_view = bulk.Snapshot(&bulk_delta);
  const InvertedIndex single_view = single.Snapshot(&single_delta);
  ExpectSameDelta(single_delta, bulk_delta);
  EXPECT_EQ(bulk_delta.epoch, 2u);
  EXPECT_EQ(bulk_delta.new_sequences, rows.size());
  ExpectSameIndex(single_view, bulk_view);
  ExpectSameIndex(BatchIndex(rows), bulk_view);
  EXPECT_EQ(bulk.live_bytes(), single.live_bytes());
  EXPECT_EQ(bulk.reserved_bytes(), single.reserved_bytes());
}

// `want` and `got` hold the same corpus: the same snapshot epoch, index and
// names, and the same stats (arena bytes included).
void ExpectSameService(MiningService& want, MiningService& got) {
  const std::shared_ptr<const ServiceSnapshot> a_snapshot = want.Snapshot();
  const std::shared_ptr<const ServiceSnapshot> b_snapshot = got.Snapshot();
  EXPECT_EQ(a_snapshot->epoch, b_snapshot->epoch);
  ExpectSameIndex(a_snapshot->index, b_snapshot->index);
  const EventDictionary& want_names = a_snapshot->db->dictionary();
  const EventDictionary& got_names = b_snapshot->db->dictionary();
  ASSERT_EQ(want_names.size(), got_names.size());
  for (EventId id = 0; id < want_names.size(); ++id) {
    EXPECT_EQ(want_names.Name(id), got_names.Name(id));
  }
  const ServiceStats a = want.Stats();
  const ServiceStats b = got.Stats();
  EXPECT_EQ(a.num_sequences, b.num_sequences);
  EXPECT_EQ(a.alphabet_size, b.alphabet_size);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.appends, b.appends);
  EXPECT_EQ(a.index_live_bytes, b.index_live_bytes);
  EXPECT_EQ(a.index_reserved_bytes, b.index_reserved_bytes);
}

// Through the service: Ingest equals one Append per sequence, in the
// snapshot, the names, and the stats (arena bytes included), and stays
// equal while both take named appends and extensions.
TEST(IncrementalIndex, IngestMatchesAppendsThroughTheService) {
  Rng rng(7);
  const auto random_names = [&rng](size_t max_len) {
    std::vector<std::string> names(rng.UniformInt(max_len + 1));
    for (std::string& name : names) {
      name = testing::NumberedName("n", rng.UniformInt(60));
    }
    return names;
  };
  SequenceDatabaseBuilder builder;
  MiningService single;
  for (int i = 0; i < 200; ++i) {
    const std::vector<std::string> names = random_names(25);
    builder.AddSequence(names);
    ASSERT_TRUE(single.Append(names).ok());
  }
  MiningService bulk;
  ASSERT_TRUE(bulk.Ingest(builder.Build()).ok());

  {
    SCOPED_TRACE("after the load");
    ExpectSameService(single, bulk);
  }
  for (int epoch = 0; epoch < 50; ++epoch) {
    const std::vector<std::string> added = random_names(8);
    ASSERT_TRUE(single.Append(added).ok());
    ASSERT_TRUE(bulk.Append(added).ok());
    const SeqId target = static_cast<SeqId>(rng.UniformInt(200));
    const std::vector<std::string> extension = {
        testing::NumberedName("n", rng.UniformInt(70)), "n1"};
    ASSERT_TRUE(single.AppendTo(target, extension).ok());
    ASSERT_TRUE(bulk.AppendTo(target, extension).ok());
    SCOPED_TRACE("after an epoch");
    ExpectSameService(single, bulk);
  }
}

// A snapshot of the empty service advances its epoch before anything is
// loaded; Ingest after it is still the per-sequence Appends.
TEST(IncrementalIndex, IngestAfterAnEmptySnapshotMatchesAppends) {
  MiningService single;
  MiningService bulk;
  EXPECT_EQ(single.Snapshot()->epoch, 1u);
  EXPECT_EQ(bulk.Snapshot()->epoch, 1u);
  SequenceDatabaseBuilder builder;
  for (const std::vector<std::string>& names :
       std::vector<std::vector<std::string>>{
           {"a", "b", "a"}, {}, {"c", "b"}, {"a", "d", "d"}}) {
    builder.AddSequence(names);
    ASSERT_TRUE(single.Append(names).ok());
  }
  ASSERT_TRUE(bulk.Ingest(builder.Build()).ok());
  ExpectSameService(single, bulk);
  EXPECT_EQ(bulk.Snapshot()->epoch, 2u);
  ASSERT_TRUE(single.AppendTo(1, {"e", "a"}).ok());
  ASSERT_TRUE(bulk.AppendTo(1, {"e", "a"}).ok());
  ExpectSameService(single, bulk);
}

TEST(IncrementalIndex, BulkIngestWithEmptySequencesMatchesBatch) {
  const std::vector<std::vector<EventId>> rows = {
      {}, {0, 2, 0}, {}, {}, {2, 1}, {}};
  std::vector<Sequence> sequences;
  for (const auto& events : rows) sequences.emplace_back(events);
  MiningService service;
  ASSERT_TRUE(service.Ingest(SequenceDatabase(std::move(sequences))).ok());
  const std::shared_ptr<const ServiceSnapshot> snapshot = service.Snapshot();
  ExpectSameIndex(BatchIndex(rows), snapshot->index);
  EXPECT_EQ(snapshot->index.seq_block(0), nullptr);
}

}  // namespace
}  // namespace gsgrow
