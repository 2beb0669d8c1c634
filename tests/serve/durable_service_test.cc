// Durable MiningService tests (DESIGN.md §10): open/append/reopen cycles,
// checkpoint + log-truncation, epoch restoration, torn-tail repair, and the
// Status-returning append-path validation (bad client input yields an error
// line, never a process death).

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "io/text_format.h"
#include "persist/checkpoint.h"
#include "persist/coding.h"
#include "persist/file_io.h"
#include "persist/wal.h"
#include "serve/durability.h"
#include "serve/incremental_index.h"
#include "serve/mining_service.h"
#include "util/rng.h"
#include "test_util.h"

namespace gsgrow {
namespace {

namespace fs = std::filesystem;

class DurableServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("gsgrow_durable_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<MiningService> Open(
      DurabilityOptions::SyncMode sync =
          DurabilityOptions::SyncMode::kGroupCommit) {
    DurabilityOptions options;
    options.dir = dir_;
    options.sync = sync;
    Result<std::unique_ptr<MiningService>> service =
        MiningService::OpenDurable(options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return service.ok() ? std::move(*service) : nullptr;
  }

  std::string dir_;
};

TEST_F(DurableServiceTest, FreshDirectoryStartsEmpty) {
  std::unique_ptr<MiningService> service = Open();
  ASSERT_NE(service, nullptr);
  EXPECT_TRUE(service->durable());
  EXPECT_EQ(service->Stats().num_sequences, 0u);
  const RecoveryInfo& info = service->recovery_info();
  EXPECT_FALSE(info.recovered_checkpoint);
  EXPECT_EQ(info.wal_replay_records, 0u);
  EXPECT_TRUE(persist::PathExists(serve::WalSegmentPath(dir_, 0)));
}

TEST_F(DurableServiceTest, AppendsSurviveReopen) {
  {
    std::unique_ptr<MiningService> service = Open();
    ASSERT_TRUE(service->Append({"a", "b", "a"}).ok());
    ASSERT_TRUE(service->Append({"b", "c"}).ok());
    ASSERT_TRUE(service->AppendTo(0, {"c", "a"}).ok());
  }
  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  const ServiceStats stats = reopened->Stats();
  EXPECT_EQ(stats.num_sequences, 2u);
  EXPECT_EQ(stats.total_events, 7u);
  EXPECT_EQ(stats.alphabet_size, 3u);
  // Composite records: 2 adds + 1 extend (fresh names ride inside them).
  EXPECT_EQ(reopened->recovery_info().wal_replay_records, 3u);
  // Names recovered, not just ids: mine by name filter.
  std::shared_ptr<const ServiceSnapshot> snapshot = reopened->Snapshot();
  EXPECT_EQ(snapshot->db->dictionary().Lookup("c"), 2u);
}

TEST_F(DurableServiceTest, EpochTrajectorySurvivesReopen) {
  uint64_t epoch_before = 0;
  {
    std::unique_ptr<MiningService> service = Open();
    ASSERT_TRUE(service->Append({"a", "b"}).ok());
    service->Snapshot();  // epoch 1
    ASSERT_TRUE(service->Append({"b", "c"}).ok());
    service->Snapshot();  // epoch 2
    service->Snapshot();  // no change: still 2
    epoch_before = service->Stats().epoch;
    EXPECT_EQ(epoch_before, 2u);
  }
  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->Stats().epoch, epoch_before);
  // A snapshot with nothing new must NOT advance past the replayed epoch.
  EXPECT_EQ(reopened->Snapshot()->epoch, epoch_before);
}

TEST_F(DurableServiceTest, CheckpointTruncatesLogAndRecovers) {
  {
    std::unique_ptr<MiningService> service = Open();
    ASSERT_TRUE(service->Append({"a", "b", "a", "b"}).ok());
    ASSERT_TRUE(service->Append({"b", "c", "b"}).ok());
    ASSERT_TRUE(service->Checkpoint().ok());
    // Covered prefix deleted, fresh segment live.
    EXPECT_FALSE(persist::PathExists(serve::WalSegmentPath(dir_, 0)));
    EXPECT_TRUE(persist::PathExists(serve::WalSegmentPath(dir_, 1)));
    EXPECT_TRUE(persist::PathExists(serve::CheckpointPath(dir_)));
    ASSERT_TRUE(service->Append({"c", "a"}).ok());
  }
  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  const RecoveryInfo& info = reopened->recovery_info();
  EXPECT_TRUE(info.recovered_checkpoint);
  EXPECT_EQ(info.checkpoint_sequences, 2u);
  EXPECT_EQ(info.wal_replay_records, 1u);  // the post-checkpoint append
  EXPECT_EQ(reopened->Stats().num_sequences, 3u);
  EXPECT_EQ(reopened->Stats().total_events, 9u);
}

TEST_F(DurableServiceTest, RepeatedCheckpointsRotateSegments) {
  std::unique_ptr<MiningService> service = Open();
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(service->Append({"a", "b"}).ok());
    ASSERT_TRUE(service->Checkpoint().ok());
  }
  Result<std::vector<uint64_t>> segments = serve::ListWalSegments(dir_);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_EQ((*segments)[0], 3u);
  service.reset();
  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->Stats().num_sequences, 3u);
  EXPECT_EQ(reopened->recovery_info().wal_replay_records, 0u);
}

TEST_F(DurableServiceTest, TornTailIsDroppedAndRepaired) {
  {
    std::unique_ptr<MiningService> service =
        Open(DurabilityOptions::SyncMode::kEveryAppend);
    ASSERT_TRUE(service->Append({"a", "b"}).ok());
    ASSERT_TRUE(service->Append({"b", "c"}).ok());
  }
  // Cut the final record in half: the crash shape.
  const std::string wal = serve::WalSegmentPath(dir_, 0);
  Result<uint64_t> size = persist::FileSize(wal);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(persist::TruncateFile(wal, *size - 3).ok());
  {
    std::unique_ptr<MiningService> reopened = Open();
    ASSERT_NE(reopened, nullptr);
    EXPECT_TRUE(reopened->recovery_info().torn_tail_dropped);
    EXPECT_EQ(reopened->Stats().num_sequences, 1u);
    // The repaired log accepts new appends after the cut point.
    ASSERT_TRUE(reopened->Append({"c", "c"}).ok());
  }
  std::unique_ptr<MiningService> again = Open();
  ASSERT_NE(again, nullptr);
  EXPECT_FALSE(again->recovery_info().torn_tail_dropped);
  EXPECT_EQ(again->Stats().num_sequences, 2u);
}

TEST_F(DurableServiceTest, MidLogCorruptionIsStatusNotCrash) {
  {
    std::unique_ptr<MiningService> service =
        Open(DurabilityOptions::SyncMode::kEveryAppend);
    ASSERT_TRUE(service->Append({"alpha", "beta"}).ok());
    ASSERT_TRUE(service->Append({"beta", "gamma"}).ok());
  }
  const std::string wal = serve::WalSegmentPath(dir_, 0);
  Result<std::string> data = persist::ReadFileToString(wal);
  ASSERT_TRUE(data.ok());
  std::string damaged = *data;
  damaged[12] = static_cast<char>(damaged[12] ^ 0x40);  // first record body
  ASSERT_TRUE(persist::WriteFileAtomic(wal, damaged).ok());
  DurabilityOptions options;
  options.dir = dir_;
  Result<std::unique_ptr<MiningService>> reopened =
      MiningService::OpenDurable(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(DurableServiceTest, MissingSegmentIsCorruption) {
  {
    std::unique_ptr<MiningService> service = Open();
    ASSERT_TRUE(service->Append({"a"}).ok());
    ASSERT_TRUE(service->Checkpoint().ok());  // now on segment 1
    ASSERT_TRUE(service->Append({"b"}).ok());
  }
  // Fake a gap: move the live segment two numbers up.
  fs::rename(serve::WalSegmentPath(dir_, 1), serve::WalSegmentPath(dir_, 3));
  DurabilityOptions options;
  options.dir = dir_;
  Result<std::unique_ptr<MiningService>> reopened =
      MiningService::OpenDurable(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(DurableServiceTest, StaleSegmentsBelowCheckpointAreIgnored) {
  {
    std::unique_ptr<MiningService> service = Open();
    ASSERT_TRUE(service->Append({"a", "b"}).ok());
    ASSERT_TRUE(service->Checkpoint().ok());
  }
  // Resurrect a pre-checkpoint segment full of garbage, as if its deletion
  // had been lost in a crash. Recovery must delete, not replay, it.
  ASSERT_TRUE(
      persist::WriteFileAtomic(serve::WalSegmentPath(dir_, 0), "garbage")
          .ok());
  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->Stats().num_sequences, 1u);
  EXPECT_FALSE(persist::PathExists(serve::WalSegmentPath(dir_, 0)));
}

TEST_F(DurableServiceTest, IngestIsLoggedAsOneCommit) {
  {
    Result<SequenceDatabase> db = ParseTextDatabase("x y\ny\n");
    ASSERT_TRUE(db.ok());
    std::unique_ptr<MiningService> service = Open();
    ASSERT_TRUE(service->Ingest(*db).ok());
    EXPECT_EQ(service->Stats().num_sequences, 2u);
  }
  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->Stats().num_sequences, 2u);
  EXPECT_EQ(reopened->Stats().alphabet_size, 2u);
  EXPECT_EQ(reopened->Snapshot()->db->dictionary().Lookup("y"), 1u);
}

// A snapshot of the empty service logs an epoch advance, and a reopen
// replays it: the service is empty at epoch 1 (serve_cli answering `mine`
// on an empty durable service, then restarted with --input). Ingest into
// it loads, and it and a reopen of it hold what an in-memory service with
// the same empty snapshot and one Append per sequence holds.
TEST_F(DurableServiceTest, IngestAfterAnEmptySnapshotSurvivesReopen) {
  const std::vector<std::vector<std::string>> rows = {
      {"a", "b", "a", "c"}, {}, {"c", "b", "b"}, {"a", "c", "a", "b"}};
  SequenceDatabaseBuilder builder;
  MiningService reference;
  EXPECT_EQ(reference.Snapshot()->epoch, 1u);
  for (const std::vector<std::string>& names : rows) {
    builder.AddSequence(names);
    ASSERT_TRUE(reference.Append(names).ok());
  }
  const SequenceDatabase db = builder.Build();
  {
    std::unique_ptr<MiningService> service = Open();
    ASSERT_NE(service, nullptr);
    EXPECT_EQ(service->Snapshot()->epoch, 1u);
  }

  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;
  const MineResponse want = reference.Execute(request);
  ASSERT_TRUE(want.status.ok());
  const auto expect_reference = [&](MiningService& service) {
    const std::shared_ptr<const ServiceSnapshot> snapshot = service.Snapshot();
    EXPECT_EQ(snapshot->epoch, 2u);
    const ServiceStats a = reference.Stats();
    const ServiceStats b = service.Stats();
    EXPECT_EQ(a.num_sequences, b.num_sequences);
    EXPECT_EQ(a.alphabet_size, b.alphabet_size);
    EXPECT_EQ(a.total_events, b.total_events);
    EXPECT_EQ(a.epoch, b.epoch);
    const EventDictionary& names = snapshot->db->dictionary();
    ASSERT_EQ(names.size(), db.dictionary().size());
    for (EventId id = 0; id < names.size(); ++id) {
      EXPECT_EQ(names.Name(id), db.dictionary().Name(id));
    }
    const MineResponse got = service.Execute(request);
    ASSERT_TRUE(got.status.ok());
    EXPECT_EQ(got.patterns, want.patterns);
  };
  {
    std::unique_ptr<MiningService> service = Open();
    ASSERT_NE(service, nullptr);
    EXPECT_EQ(service->Stats().epoch, 1u);
    ASSERT_TRUE(service->Ingest(db).ok());
    SCOPED_TRACE("after the load");
    expect_reference(*service);
  }
  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  SCOPED_TRACE("after a reopen");
  expect_reference(*reopened);
}

// A bulk load is written as chunked runs of framed records, but the bytes
// on disk are exactly the per-record log: one intern record per name, then
// one sequence record per sequence, each framed as WalWriter::Append frames
// it. The corpus logs more than one 1 MiB chunk. A reopen replays it to the
// same stats.
TEST_F(DurableServiceTest, BulkIngestLogIsThePerRecordLog) {
  Rng rng(99);
  SequenceDatabaseBuilder builder;
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::string> names(rng.UniformInt(200));
    for (std::string& name : names) {
      name = testing::NumberedName("w", rng.UniformInt(5000));
    }
    builder.AddSequence(names);
  }
  const SequenceDatabase db = builder.Build();

  ServiceStats before;
  {
    std::unique_ptr<MiningService> service = Open();
    ASSERT_NE(service, nullptr);
    ASSERT_TRUE(service->Ingest(db).ok());
    before = service->Stats();
  }
  const std::string reference_path = dir_ + "/reference.log";
  {
    Result<persist::WalWriter> wal = persist::WalWriter::Open(reference_path);
    ASSERT_TRUE(wal.ok());
    std::string payload;
    for (EventId id = 0; id < db.dictionary().size(); ++id) {
      serve::EncodeInternRecord(id, db.dictionary().Name(id), &payload);
      ASSERT_TRUE(
          wal->Append(static_cast<uint8_t>(serve::LogRecordType::kIntern),
                      payload)
              .ok());
    }
    for (SeqId seq = 0; seq < db.size(); ++seq) {
      serve::EncodeSequenceRecord(seq, {}, db[seq].events(), &payload);
      ASSERT_TRUE(wal->Append(
                         static_cast<uint8_t>(
                             serve::LogRecordType::kAddSequence),
                         payload)
                      .ok());
    }
    ASSERT_TRUE(wal->Close().ok());
  }
  Result<std::string> logged =
      persist::ReadFileToString(serve::WalSegmentPath(dir_, 0));
  Result<std::string> reference = persist::ReadFileToString(reference_path);
  ASSERT_TRUE(logged.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_GT(logged->size(), size_t{1} << 20);
  EXPECT_TRUE(*logged == *reference)
      << logged->size() << " vs " << reference->size() << " bytes";
  ASSERT_TRUE(persist::RemoveFileIfExists(reference_path).ok());

  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  const ServiceStats after = reopened->Stats();
  EXPECT_EQ(after.num_sequences, before.num_sequences);
  EXPECT_EQ(after.alphabet_size, before.alphabet_size);
  EXPECT_EQ(after.total_events, before.total_events);
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_EQ(after.appends, before.appends);
  EXPECT_EQ(after.wal_segments, before.wal_segments);
  EXPECT_EQ(after.wal_live_bytes, before.wal_live_bytes);
  EXPECT_EQ(after.wal_replay_records,
            db.dictionary().size() + db.size());
}

// A crash in the middle of a bulk load can recover its dictionary records
// without any sequence (Ingest logs every name first). Ingesting into that
// service is refused with a Status, not an invariant abort: the ids the
// load would assign are partly taken.
TEST_F(DurableServiceTest, IngestAfterRecoveredNamesIsInvalidArgument) {
  ASSERT_TRUE(persist::CreateDirIfMissing(dir_).ok());
  {
    Result<persist::WalWriter> wal =
        persist::WalWriter::Open(serve::WalSegmentPath(dir_, 0));
    ASSERT_TRUE(wal.ok());
    std::string payload;
    serve::EncodeInternRecord(0, "x", &payload);
    ASSERT_TRUE(
        wal->Append(static_cast<uint8_t>(serve::LogRecordType::kIntern),
                    payload)
            .ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  std::unique_ptr<MiningService> service = Open();
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->Stats().num_sequences, 0u);
  Result<SequenceDatabase> db = ParseTextDatabase("y x\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(service->Ingest(*db).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Stats().num_sequences, 0u);
  EXPECT_EQ(service->Stats().total_events, 0u);
}

// --- Result cache across checkpoint and recovery (DESIGN.md §12). ---

TEST_F(DurableServiceTest, CheckpointKeepsCacheCoherent) {
  std::unique_ptr<MiningService> service = Open();
  ASSERT_NE(service, nullptr);
  ASSERT_TRUE(service->Append({"a", "b", "a", "b"}).ok());
  ASSERT_TRUE(service->Append({"b", "a", "b"}).ok());

  MineRequest request;
  request.options.min_support = 2;
  const MineResponse before = service->Execute(request);
  ASSERT_TRUE(before.status.ok());

  // Checkpoint() snapshots internally; that epoch advance must flow through
  // the cache's delta hook, so the cached answer stays servable (the delta
  // is empty — nothing was appended since the entry was mined).
  ASSERT_TRUE(service->Checkpoint().ok());
  const MineResponse after = service->Execute(request);
  EXPECT_EQ(after.patterns, before.patterns);
  EXPECT_EQ(service->Stats().cache_hits, 1u);

  // Post-checkpoint appends dirty the unrestricted entry as usual, and the
  // re-mined answer matches a cache-free run on the same snapshot.
  ASSERT_TRUE(service->Append({"a", "a"}).ok());
  const MineResponse remined = service->Execute(request);
  const MineResponse reference =
      MiningService::ExecuteOn(*service->Snapshot(), request);
  EXPECT_EQ(remined.patterns, reference.patterns);
  EXPECT_EQ(service->Stats().cache_misses, 2u);
}

TEST_F(DurableServiceTest, RecoveryStartsWithAnInvalidatedCache) {
  MineRequest request;
  request.options.min_support = 2;
  {
    std::unique_ptr<MiningService> service =
        Open(DurabilityOptions::SyncMode::kEveryAppend);
    ASSERT_NE(service, nullptr);
    ASSERT_TRUE(service->Append({"a", "b", "a", "b"}).ok());
    ASSERT_TRUE(service->Execute(request).status.ok());
    ASSERT_TRUE(service->Execute(request).status.ok());
    EXPECT_EQ(service->Stats().cache_hits, 1u);
    // This append is about to be torn off the log: the corpus the cache
    // saw and the corpus recovery replays will disagree, while the epoch
    // counter restarts from a comparable value — exactly the stale-hit
    // shape OpenDurable's cache invalidation exists to prevent.
    ASSERT_TRUE(service->Append({"a", "b"}).ok());
  }
  const std::string wal = serve::WalSegmentPath(dir_, 0);
  Result<uint64_t> size = persist::FileSize(wal);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(persist::TruncateFile(wal, *size - 3).ok());

  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  EXPECT_TRUE(reopened->recovery_info().torn_tail_dropped);
  EXPECT_EQ(reopened->Stats().num_sequences, 1u);

  // The first post-recovery query must be a cold miss answered from the
  // replayed corpus, byte-for-byte what a cache-free execution computes.
  const MineResponse recovered = reopened->Execute(request);
  const MineResponse reference =
      MiningService::ExecuteOn(*reopened->Snapshot(), request);
  ASSERT_TRUE(recovered.status.ok());
  EXPECT_EQ(recovered.patterns, reference.patterns);
  const ServiceStats stats = reopened->Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

// --- Append-path validation (the Status satellite): bad client input is an
// error value, not a GSGROW_CHECK death. ---

TEST_F(DurableServiceTest, AppendToUnknownSequenceIsNotFound) {
  std::unique_ptr<MiningService> service = Open();
  const Status status = service->AppendTo(99, {"a"});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  // Nothing was logged: reopening sees an empty corpus.
  service.reset();
  EXPECT_EQ(Open()->Stats().num_sequences, 0u);
}

// Event names are capped where they are interned: a name of exactly
// kMaxEventNameBytes is accepted, one byte more is InvalidArgument and
// leaves the log, the epoch and the dictionary as they were.
TEST_F(DurableServiceTest, EventNameLengthIsCappedAtInterning) {
  std::unique_ptr<MiningService> service = Open();
  const std::string at_cap(kMaxEventNameBytes, 'x');
  ASSERT_TRUE(service->Append({"a", at_cap}).ok());
  const uint64_t epoch = service->Snapshot()->epoch;
  const ServiceStats before = service->Stats();

  const std::string over_cap(kMaxEventNameBytes + 1, 'y');
  EXPECT_EQ(service->Append({"a", over_cap}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->AppendTo(0, {over_cap}).code(),
            StatusCode::kInvalidArgument);
  const ServiceStats after = service->Stats();
  EXPECT_EQ(after.wal_live_bytes, before.wal_live_bytes);
  EXPECT_EQ(after.num_sequences, before.num_sequences);
  EXPECT_EQ(after.total_events, before.total_events);
  EXPECT_EQ(after.appends, before.appends);
  const std::shared_ptr<const ServiceSnapshot> snapshot = service->Snapshot();
  EXPECT_EQ(snapshot->epoch, epoch);
  EXPECT_EQ(snapshot->db->dictionary().size(), 2u);

  service.reset();
  std::unique_ptr<MiningService> reopened = Open();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->Snapshot()->db->dictionary().Lookup(at_cap), 1u);
  EXPECT_EQ(reopened->Stats().num_sequences, 1u);
}

// WAL replay is not capped: the log only ever holds names the live service
// accepted, so a longer one in it is replayed as written.
TEST_F(DurableServiceTest, ReplayDoesNotCapEventNames) {
  ASSERT_TRUE(persist::CreateDirIfMissing(dir_).ok());
  const std::string long_name(kMaxEventNameBytes + 1, 'z');
  {
    Result<persist::WalWriter> wal =
        persist::WalWriter::Open(serve::WalSegmentPath(dir_, 0));
    ASSERT_TRUE(wal.ok());
    const std::vector<std::pair<EventId, const std::string*>> fresh = {
        {0, &long_name}};
    const std::vector<EventId> events = {0, 0};
    std::string payload;
    serve::EncodeSequenceRecord(0, fresh, events, &payload);
    ASSERT_TRUE(
        wal->Append(static_cast<uint8_t>(serve::LogRecordType::kAddSequence),
                    payload)
            .ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  std::unique_ptr<MiningService> service = Open();
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->Snapshot()->db->dictionary().Lookup(long_name), 0u);
  EXPECT_EQ(service->Stats().total_events, 2u);
}

// The checkpoint spills each sequence as the index holds it — frozen block
// plus unfrozen tail, or a tail alone — and reads back exactly.
TEST_F(DurableServiceTest, CheckpointSpillsUnfrozenTailsExactly) {
  ASSERT_TRUE(persist::CreateDirIfMissing(dir_).ok());
  EventDictionary dictionary;
  for (const char* name : {"a", "b", "c"}) dictionary.Intern(name);
  std::vector<std::vector<EventId>> expected = {{0, 1, 0, 2}, {2, 2}, {}};
  IncrementalInvertedIndex index;
  for (const std::vector<EventId>& events : expected) index.AddSequence(events);
  index.Snapshot();
  const std::vector<EventId> extension = {1, 0};
  index.AppendToSequence(0, extension);  // frozen block + tail
  expected[0].insert(expected[0].end(), extension.begin(), extension.end());
  index.AppendToSequence(2, extension);  // empty when frozen: tail only
  expected[2] = extension;
  const std::vector<EventId> fresh = {0, 2, 1};
  index.AddSequence(fresh);  // never frozen
  expected.push_back(fresh);

  ASSERT_TRUE(serve::WriteServeCheckpoint(dir_, dictionary, index,
                                          /*epoch=*/7, /*wal_segment=*/3)
                  .ok());
  Result<serve::CheckpointState> state = serve::ReadServeCheckpoint(dir_);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->epoch, 7u);
  EXPECT_EQ(state->wal_segment, 3u);
  EXPECT_EQ(state->names, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(state->sequences, expected);
  EXPECT_EQ(state->total_events, 13u);
}

// A checksum-valid CHECKPOINT made of one meta page whose counts claim far
// more entries than any section page holds: recovery reports Corruption
// instead of reserving what the claim asks for. A count of 0 still
// recovers. (tests/serve/testdata/hostile_checkpoint holds the 2^61-sequence
// file for the serve_cli exit-code test.)
TEST_F(DurableServiceTest, HostileCheckpointCountIsCorruption) {
  const auto write_meta_only = [&](uint64_t num_sequences,
                                   uint64_t dict_size) {
    fs::remove_all(dir_);
    ASSERT_TRUE(persist::CreateDirIfMissing(dir_).ok());
    std::string page;
    persist::PutFixed32(&page, 1);  // format version
    persist::PutFixed64(&page, 0);  // epoch
    persist::PutFixed64(&page, 0);  // WAL segment
    persist::PutFixed64(&page, num_sequences);
    persist::PutFixed64(&page, dict_size);
    persist::PutFixed64(&page, 0);  // total events
    persist::CheckpointWriter writer;
    writer.AddPage(/*meta page=*/1, page);
    ASSERT_TRUE(writer.WriteTo(serve::CheckpointPath(dir_)).ok());
  };
  const uint64_t hostile = uint64_t{1} << 61;
  for (const auto& [num_sequences, dict_size] :
       {std::pair{hostile, uint64_t{0}}, std::pair{uint64_t{0}, hostile}}) {
    write_meta_only(num_sequences, dict_size);
    EXPECT_EQ(serve::ReadServeCheckpoint(dir_).status().code(),
              StatusCode::kCorruption);
    DurabilityOptions options;
    options.dir = dir_;
    EXPECT_EQ(MiningService::OpenDurable(options).status().code(),
              StatusCode::kCorruption);
  }
  write_meta_only(0, 0);
  std::unique_ptr<MiningService> service = Open();
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->Stats().num_sequences, 0u);
}

TEST(MiningServiceValidation, ReservedEventIdIsInvalidArgument) {
  MiningService service;
  const std::vector<EventId> bad = {0, kNoEvent, 1};
  EXPECT_EQ(service.AppendIds(bad).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(service.AppendIds(std::vector<EventId>{0, 1}).ok());
  EXPECT_EQ(service.AppendIdsTo(0, bad).code(),
            StatusCode::kInvalidArgument);
  // The failed calls left no partial state behind.
  EXPECT_EQ(service.Stats().num_sequences, 1u);
  EXPECT_EQ(service.Stats().total_events, 2u);
}

TEST(MiningServiceValidation, CheckpointOnInMemoryServiceIsInvalidArgument) {
  MiningService service;
  EXPECT_FALSE(service.durable());
  EXPECT_EQ(service.Checkpoint().code(), StatusCode::kInvalidArgument);
}

TEST(MiningServiceValidation, OpenDurableRejectsBadOptions) {
  DurabilityOptions options;  // dir unset
  EXPECT_EQ(MiningService::OpenDurable(options).status().code(),
            StatusCode::kInvalidArgument);
  options.dir = (fs::temp_directory_path() / "gsgrow_badopts").string();
  options.group_commit_appends = 0;
  EXPECT_EQ(MiningService::OpenDurable(options).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gsgrow
