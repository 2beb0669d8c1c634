// Append-while-mining under ThreadSanitizer: the serving contract is that
// readers mine immutable epoch snapshots while a writer keeps appending —
// no locks held during mining, no torn reads, and every snapshot equal to
// a batch index over the corpus state it captured.
//
// This suite runs under the `tsan` preset (ServeSnapshot* is in the ctest
// filter): a writer thread streams appends/extensions through the service
// while reader threads snapshot and mine concurrently. The ground truth is
// independent of the index under test: the writer logs every mutation in a
// mirror BEFORE applying it, and every append carries at least one event,
// so a snapshot's total event count names exactly one prefix of that log.
// Each reader batch-indexes that prefix from scratch and must mine exactly
// what the incremental snapshot mines; a torn or non-epoch-consistent view
// matches no prefix (or trips TSan).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/inverted_index.h"
#include "core/sequence_database.h"
#include "serve/incremental_index.h"
#include "serve/mining_service.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace gsgrow {
namespace {

// The writer's log of mutations, in the order the service applied them.
class MutationMirror {
 public:
  static constexpr SeqId kNewSequence = std::numeric_limits<SeqId>::max();

  void Record(SeqId target, std::vector<EventId> events) {
    MutexLock lock(&mutex_);
    ops_.emplace_back(target, std::move(events));
  }

  size_t num_sequences() {
    MutexLock lock(&mutex_);
    size_t count = 0;
    for (const auto& op : ops_) count += op.first == kNewSequence ? 1 : 0;
    return count;
  }

  /// The corpus after the shortest prefix of the log holding exactly
  /// `total_events` events, or nullopt when no prefix does.
  std::optional<SequenceDatabase> Prefix(uint64_t total_events) {
    MutexLock lock(&mutex_);
    std::vector<std::vector<EventId>> sequences;
    uint64_t total = 0;
    for (const auto& [target, events] : ops_) {
      if (total == total_events) break;
      if (target == kNewSequence) {
        sequences.push_back(events);
      } else {
        sequences[target].insert(sequences[target].end(), events.begin(),
                                 events.end());
      }
      total += events.size();
    }
    if (total != total_events) return std::nullopt;
    std::vector<Sequence> rows;
    rows.reserve(sequences.size());
    for (std::vector<EventId>& events : sequences) {
      rows.emplace_back(std::move(events));
    }
    return SequenceDatabase(std::move(rows));
  }

 private:
  Mutex mutex_;
  std::vector<std::pair<SeqId, std::vector<EventId>>> ops_
      GSGROW_GUARDED_BY(mutex_);
};

uint64_t TotalEvents(const InvertedIndex& index) {
  uint64_t total = 0;
  for (SeqId i = 0; i < index.num_sequences(); ++i) {
    total += index.SequenceLength(i);
  }
  return total;
}

TEST(ServeSnapshotIsolation, AppendWhileMining) {
  MiningService service;
  MutationMirror mirror;
  // Seed corpus so early snapshots have something to mine.
  for (int i = 0; i < 8; ++i) {
    const std::vector<EventId> seed = {0, 1, 2, 0, 1};
    mirror.Record(MutationMirror::kNewSequence, seed);
    ASSERT_TRUE(service.AppendIds(seed).ok());
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(7);
    // Keep writing until every reader has finished its quota: readers must
    // observe snapshots taken genuinely mid-stream. The corpus is capped so
    // late reader iterations stay cheap even under TSan; past the cap the
    // writer keeps issuing (bounded) extensions, so appends still interleave
    // with every reader snapshot.
    uint64_t appended = 0;
    constexpr uint64_t kMaxNewSequences = 400;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<EventId> events;
      const size_t len = 1 + static_cast<size_t>(rng.UniformInt(6));
      for (size_t i = 0; i < len; ++i) {
        events.push_back(static_cast<EventId>(rng.UniformInt(5)));
      }
      if (appended >= kMaxNewSequences) {
        // Corpus is big enough; idle (but stay alive) so late reader
        // iterations don't chase an ever-growing database.
        std::this_thread::yield();
        continue;
      }
      // Logged before it is applied: the mirror always holds at least what
      // any snapshot can see.
      if (rng.Bernoulli(0.3)) {
        const SeqId target =
            static_cast<SeqId>(rng.UniformInt(mirror.num_sequences()));
        mirror.Record(target, events);
        ASSERT_TRUE(service.AppendIdsTo(target, events).ok());
      } else {
        mirror.Record(MutationMirror::kNewSequence, events);
        ASSERT_TRUE(service.AppendIds(events).ok());
      }
      ++appended;
    }
    EXPECT_GT(appended, 0u);
  });

  constexpr int kReaders = 3;
  constexpr int kSnapshotsPerReader = 6;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service, &mirror] {
      for (int s = 0; s < kSnapshotsPerReader; ++s) {
        const auto snapshot = service.Snapshot();
        const uint64_t total = TotalEvents(snapshot->index);
        const std::optional<SequenceDatabase> truth = mirror.Prefix(total);
        ASSERT_TRUE(truth.has_value())
            << "snapshot epoch " << snapshot->epoch << " holds " << total
            << " events, which no prefix of the mutation log does";
        const InvertedIndex batch(*truth);
        ASSERT_EQ(batch.num_sequences(), snapshot->index.num_sequences());
        MinerOptions options;
        // Scale the floor with the corpus so per-iteration mining cost
        // stays flat while the writer grows the database (the point here
        // is the concurrency surface, not DFS depth — TSan multiplies
        // every instruction).
        options.min_support = std::max<uint64_t>(3, total / 10);
        options.max_pattern_length = 5;
        const MiningResult incremental =
            MineClosedFrequent(snapshot->index, options);
        const MiningResult reference = MineClosedFrequent(batch, options);
        ASSERT_EQ(incremental.patterns, reference.patterns)
            << "snapshot epoch " << snapshot->epoch;
        // Mining the same snapshot twice is deterministic even while the
        // writer keeps appending.
        const MiningResult again =
            MineClosedFrequent(snapshot->index, options);
        ASSERT_EQ(incremental.patterns, again.patterns);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  // Final consistency: the quiescent snapshot equals a batch index over
  // the whole mirror.
  const auto final_snapshot = service.Snapshot();
  const uint64_t total = TotalEvents(final_snapshot->index);
  const std::optional<SequenceDatabase> truth = mirror.Prefix(total);
  ASSERT_TRUE(truth.has_value());
  const InvertedIndex batch(*truth);
  ASSERT_EQ(batch.num_sequences(), final_snapshot->index.num_sequences());
  ASSERT_EQ(batch.num_sequences(), mirror.num_sequences());
  MinerOptions options;
  options.min_support = std::max<uint64_t>(3, total / 20);
  options.max_pattern_length = 5;
  EXPECT_EQ(MineClosedFrequent(final_snapshot->index, options).patterns,
            MineClosedFrequent(batch, options).patterns);
}

// Every query answer of `index`, as text: positions, postings with
// per-sequence counts, totals and the present events.
std::string Surface(const InvertedIndex& index) {
  // Built with += : gcc 12's -O3 -Wrestrict misfires on
  // `"literal" + std::to_string(...)`.
  std::string out = "alphabet ";
  out += std::to_string(index.alphabet_size());
  out += "\n";
  for (SeqId i = 0; i < index.num_sequences(); ++i) {
    out += "seq ";
    out += std::to_string(i);
    out += "\n";
    for (const EventId e : index.EventsInSequence(i)) {
      out += " e";
      out += std::to_string(e);
      out += ":";
      for (const Position p : index.Positions(i, e)) {
        out += " ";
        out += std::to_string(p);
      }
      out += "\n";
    }
  }
  for (const EventId e : index.present_events()) {
    out += "post e";
    out += std::to_string(e);
    out += " total ";
    out += std::to_string(index.TotalCount(e));
    for (const SeqId seq : index.Postings(e)) {
      out += " ";
      out += std::to_string(seq);
      out += "x";
      out += std::to_string(index.Count(seq, e));
    }
    out += "\n";
  }
  return out;
}

// Relocation moves bytes, not content: a snapshot held while the writer
// relocates the survivors of its arenas — read by another thread the whole
// time — must still equal a batch index over its prefix, bit for bit.
// Sequence 0 is never touched after the held snapshot, so every change of
// its block pointer in the newest view is one relocation of its bytes.
TEST(ServeSnapshotIsolation, HeldSnapshotSurvivesRelocation) {
  IncrementalInvertedIndex incremental;
  std::vector<std::vector<EventId>> mirror;
  Rng rng(11);
  const auto random_events = [&rng](size_t len) {
    std::vector<EventId> events(len);
    for (EventId& e : events) e = static_cast<EventId>(rng.UniformInt(12));
    return events;
  };
  for (int i = 0; i < 64; ++i) {
    mirror.push_back(random_events(10));
    incremental.AddSequence(mirror.back());
  }
  const InvertedIndex held = incremental.Snapshot();
  std::vector<Sequence> rows;
  rows.reserve(mirror.size());
  for (const std::vector<EventId>& events : mirror) rows.emplace_back(events);
  const std::string want = Surface(InvertedIndex(SequenceDatabase(rows)));
  ASSERT_EQ(Surface(held), want);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    MinerOptions options;
    options.min_support = 20;
    options.max_pattern_length = 3;
    const MiningResult first = MineClosedFrequent(held, options);
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_EQ(MineClosedFrequent(held, options).patterns, first.patterns);
    }
  });

  const InvertedIndex::SeqBlock* last = held.seq_block(0);
  int relocations = 0;
  for (int epoch = 0; epoch < 300 && relocations < 3; ++epoch) {
    for (int k = 0; k < 8; ++k) {
      const SeqId target = static_cast<SeqId>(1 + rng.UniformInt(63));
      incremental.AppendToSequence(target, random_events(3));
    }
    const InvertedIndex newest = incremental.Snapshot();
    if (newest.seq_block(0) != last) {
      last = newest.seq_block(0);
      ++relocations;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GE(relocations, 3);
  EXPECT_EQ(Surface(held), want);
}

TEST(ServeSnapshotIsolation, ConcurrentBatchesShareSnapshotsSafely) {
  MiningService service;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(service.AppendIds(std::vector<EventId>{0, 1, 0, 2, 1}).ok());
  }
  std::vector<MineRequest> requests(6);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].miner =
        i % 2 == 0 ? MineRequest::Miner::kClosed : MineRequest::Miner::kAll;
    requests[i].options.min_support = 2 + i / 2;
  }

  // Two concurrent multi-threaded batches against a service that a writer
  // is feeding: exercises snapshot handoff + the request dispenser under
  // TSan.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(service.AppendIds(std::vector<EventId>{2, 0, 1}).ok());
    }
  });
  std::vector<MineResponse> a, b;
  std::thread batch_a([&] { a = service.ExecuteBatch(requests, 2); });
  std::thread batch_b([&] { b = service.ExecuteBatch(requests, 3); });
  batch_a.join();
  batch_b.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  ASSERT_EQ(a.size(), requests.size());
  ASSERT_EQ(b.size(), requests.size());
  // Within one batch, every response shares the batch's epoch.
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(a[i].status.ok());
    EXPECT_TRUE(b[i].status.ok());
    EXPECT_EQ(a[i].epoch, a[0].epoch);
    EXPECT_EQ(b[i].epoch, b[0].epoch);
  }
}

}  // namespace
}  // namespace gsgrow
