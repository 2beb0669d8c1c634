// MiningService: request execution must match the direct miner facades on
// an equivalent frozen database; event filters follow projection
// semantics; batches are deterministic at any worker count and share one
// epoch snapshot; snapshots isolate queries from later appends.

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/gap_constrained.h"
#include "core/gsgrow.h"
#include "core/topk.h"
#include "serve/mining_service.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using ::gsgrow::testing::AsSet;

// The Fig. 1 corpus plus one more row, as append calls.
void LoadExample(MiningService* service) {
  ASSERT_TRUE(service->Append({"A", "A", "B", "C", "D", "A", "B", "B"}).ok());
  ASSERT_TRUE(service->Append({"A", "B", "C", "D"}).ok());
  ASSERT_TRUE(service->Append({"B", "A", "B", "A"}).ok());
}

SequenceDatabase ExampleDatabase() {
  return MakeDatabaseFromStrings({"AABCDABB", "ABCD", "BABA"});
}

TEST(MiningService, ClosedMatchesFacade) {
  MiningService service;
  LoadExample(&service);
  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;
  const MineResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok());

  MinerOptions options;
  options.min_support = 2;
  EXPECT_EQ(response.patterns,
            MineClosedFrequent(ExampleDatabase(), options).patterns);
  EXPECT_EQ(response.epoch, 1u);
}

TEST(MiningService, AllMatchesFacadeAfterExtend) {
  MiningService service;
  LoadExample(&service);
  ASSERT_TRUE(service.AppendTo(1, {"A", "B"}).ok());
  MineRequest request;
  request.miner = MineRequest::Miner::kAll;
  request.options.min_support = 3;
  const MineResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok());

  MinerOptions options;
  options.min_support = 3;
  SequenceDatabase db =
      MakeDatabaseFromStrings({"AABCDABB", "ABCDAB", "BABA"});
  EXPECT_EQ(response.patterns, MineAllFrequent(db, options).patterns);
}

TEST(MiningService, TopKMatchesFacade) {
  MiningService service;
  LoadExample(&service);
  MineRequest request;
  request.miner = MineRequest::Miner::kTopK;
  request.options.k = 4;
  request.options.min_length = 2;
  const MineResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok());

  EXPECT_EQ(response.patterns,
            MineTopKClosed(ExampleDatabase(), request.options));
}

TEST(MiningService, GapConstrainedMatchesFacade) {
  MiningService service;
  LoadExample(&service);
  MineRequest request;
  request.miner = MineRequest::Miner::kGapConstrained;
  request.options.min_support = 2;
  request.gap.max_gap = 1;
  const MineResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok());

  MinerOptions options;
  options.min_support = 2;
  LandmarkGapConstraint gap;
  gap.max_gap = 1;
  EXPECT_EQ(response.patterns,
            MineAllFrequentGapConstrained(ExampleDatabase(), options, gap)
                .patterns);
}

// Event filters implement projection semantics: mining with the filter
// {A, B} equals mining the database with every other event deleted
// (supports of gapped subsequences ignore the dropped events entirely;
// closure candidates are restricted the same way).
TEST(MiningService, EventFilterEqualsProjectedDatabase) {
  MiningService service;
  LoadExample(&service);
  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;
  request.event_filter = {"A", "B"};
  const MineResponse response = service.Execute(request);
  ASSERT_TRUE(response.status.ok());

  SequenceDatabase projected =
      MakeDatabaseFromStrings({"AABABB", "AB", "BABA"});
  MinerOptions options;
  options.min_support = 2;
  const MiningResult direct = MineClosedFrequent(projected, options);
  // Ids differ between the two databases; compare as (names, support).
  const auto snapshot = service.Snapshot();
  EXPECT_EQ(AsSet(snapshot->db->dictionary(), response.patterns),
            AsSet(projected, direct.patterns));
}

TEST(MiningService, UnknownEventFilterAnswersEmpty) {
  MiningService service;
  LoadExample(&service);
  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 1;
  request.event_filter = {"NOPE"};
  const MineResponse response = service.Execute(request);
  EXPECT_TRUE(response.status.ok());
  EXPECT_TRUE(response.patterns.empty());
}

TEST(MiningService, InvalidRequestsReportStatus) {
  MiningService service;
  LoadExample(&service);
  MineRequest bad_sup;
  bad_sup.options.min_support = 0;
  EXPECT_FALSE(service.Execute(bad_sup).status.ok());

  MineRequest bad_k;
  bad_k.miner = MineRequest::Miner::kTopK;
  bad_k.options.k = 0;
  EXPECT_FALSE(service.Execute(bad_k).status.ok());

  // A zero length cap admits no pattern; it must not answer single events.
  MineRequest zero_len;
  zero_len.miner = MineRequest::Miner::kAll;
  zero_len.options.max_pattern_length = 0;
  EXPECT_EQ(service.Execute(zero_len).status.code(),
            StatusCode::kInvalidArgument);

  // min_gap > max_gap admits no landmark step; mining it would answer with
  // single events only.
  MineRequest bad_gap;
  bad_gap.miner = MineRequest::Miner::kGapConstrained;
  bad_gap.gap.min_gap = 5;
  bad_gap.gap.max_gap = 1;
  EXPECT_EQ(service.Execute(bad_gap).status.code(),
            StatusCode::kInvalidArgument);
  bad_gap.gap.max_gap = 5;  // an equal bound is a valid, exact gap
  EXPECT_TRUE(service.Execute(bad_gap).status.ok());

  EXPECT_FALSE(service.AppendTo(99, {"A"}).ok());
}

TEST(MiningService, SnapshotIsolatesFromLaterAppends) {
  MiningService service;
  LoadExample(&service);
  const auto snapshot = service.Snapshot();

  // Appends land after the snapshot; queries on it must not see them.
  ASSERT_TRUE(service.Append({"A", "B", "A", "B", "A", "B"}).ok());
  ASSERT_TRUE(service.AppendTo(0, {"A", "B"}).ok());

  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;
  const MineResponse old_view = MiningService::ExecuteOn(*snapshot, request);
  MinerOptions options;
  options.min_support = 2;
  EXPECT_EQ(old_view.patterns,
            MineClosedFrequent(ExampleDatabase(), options).patterns);

  // A fresh snapshot sees the appends.
  const MineResponse new_view = service.Execute(request);
  SequenceDatabase grown = MakeDatabaseFromStrings(
      {"AABCDABBAB", "ABCD", "BABA", "ABABAB"});
  EXPECT_EQ(new_view.patterns, MineClosedFrequent(grown, options).patterns);
  EXPECT_GT(new_view.epoch, old_view.epoch);
}

// A snapshot holds the epoch's names and no sequences: the index is its
// only copy of the corpus.
static_assert(!std::is_constructible_v<InvertedIndex, const SnapshotNames&>);

// The names are copied only when an append interned a new one; every other
// epoch's snapshot shares the previous snapshot's `db`.
TEST(MiningService, SnapshotsShareNamesUntilANameIsInterned) {
  MiningService service;
  LoadExample(&service);
  const auto first = service.Snapshot();
  ASSERT_TRUE(service.Append({"A", "B"}).ok());
  ASSERT_TRUE(service.AppendTo(0, {"C"}).ok());
  ASSERT_TRUE(service.AppendIds(std::vector<EventId>{0, 3}).ok());
  const auto second = service.Snapshot();
  EXPECT_GT(second->epoch, first->epoch);
  EXPECT_EQ(second->db.get(), first->db.get());

  ASSERT_TRUE(service.Append({"A", "E"}).ok());
  const auto third = service.Snapshot();
  EXPECT_GT(third->epoch, second->epoch);
  EXPECT_NE(third->db.get(), second->db.get());
  EXPECT_EQ(third->db->dictionary().Lookup("E"), 4u);
  // The earlier snapshots keep the names of their epoch.
  EXPECT_EQ(second->db->dictionary().Lookup("E"), kNoEvent);
  EXPECT_EQ(second->db->dictionary().size(), 4u);
}

TEST(MiningService, BatchSharesOneSnapshotAndIsThreadCountInvariant) {
  MiningService service;
  LoadExample(&service);
  std::vector<MineRequest> requests(4);
  requests[0].miner = MineRequest::Miner::kClosed;
  requests[0].options.min_support = 2;
  requests[1].miner = MineRequest::Miner::kAll;
  requests[1].options.min_support = 3;
  requests[2].miner = MineRequest::Miner::kTopK;
  requests[2].options.k = 3;
  requests[2].options.min_length = 2;
  requests[3].miner = MineRequest::Miner::kClosed;
  requests[3].options.min_support = 2;
  requests[3].event_filter = {"A", "B"};

  const std::vector<MineResponse> sequential =
      service.ExecuteBatch(requests, 1);
  const std::vector<MineResponse> parallel =
      service.ExecuteBatch(requests, 4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_TRUE(sequential[i].status.ok());
    EXPECT_EQ(sequential[i].patterns, parallel[i].patterns) << "request " << i;
    // Every response of one batch carries the same snapshot epoch.
    EXPECT_EQ(sequential[i].epoch, sequential[0].epoch);
    EXPECT_EQ(parallel[i].epoch, parallel[0].epoch);
  }
}

TEST(MiningService, StatsTrackTheCorpus) {
  MiningService service;
  EXPECT_EQ(service.Stats().num_sequences, 0u);
  LoadExample(&service);
  ASSERT_TRUE(service.AppendTo(2, {"D"}).ok());
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.num_sequences, 3u);
  EXPECT_EQ(stats.alphabet_size, 4u);
  EXPECT_EQ(stats.total_events, 8u + 4u + 4u + 1u);
  EXPECT_EQ(stats.appends, 4u);
}

// Index memory in the stats comes from the writer's arena accounting: it
// is zero before the first snapshot, covers the snapshot's storage after
// it, and the reserved bytes stay within twice the live bytes.
TEST(MiningService, StatsReportIndexArenaBytes) {
  MiningService service;
  LoadExample(&service);
  EXPECT_EQ(service.Stats().index_live_bytes, 0u);
  const std::shared_ptr<const ServiceSnapshot> snapshot = service.Snapshot();
  const ServiceStats stats = service.Stats();
  EXPECT_GE(stats.index_live_bytes, snapshot->index.MemoryUsage());
  EXPECT_GE(stats.index_reserved_bytes, stats.index_live_bytes);
  EXPECT_LE(stats.index_reserved_bytes, 2 * stats.index_live_bytes);
}

TEST(MiningService, IngestSharesTheBulkLoadPath) {
  MiningService service;
  ASSERT_TRUE(service.Ingest(ExampleDatabase()).ok());
  EXPECT_FALSE(service.Ingest(ExampleDatabase()).ok());  // must be empty

  MineRequest request;
  request.miner = MineRequest::Miner::kClosed;
  request.options.min_support = 2;
  MinerOptions options;
  options.min_support = 2;
  EXPECT_EQ(service.Execute(request).patterns,
            MineClosedFrequent(ExampleDatabase(), options).patterns);

  // Ingested corpora keep growing incrementally.
  ASSERT_TRUE(service.AppendTo(1, {"A", "B"}).ok());
  SequenceDatabase grown =
      MakeDatabaseFromStrings({"AABCDABB", "ABCDAB", "BABA"});
  EXPECT_EQ(service.Execute(request).patterns,
            MineClosedFrequent(grown, options).patterns);
}

// Ingest validates the whole corpus before it loads anything: the reserved
// id kNoEvent anywhere is InvalidArgument and the service stays empty, so a
// valid corpus still loads afterwards.
TEST(MiningService, IngestRefusesReservedIds) {
  MiningService service;
  std::vector<Sequence> reserved;
  reserved.push_back(Sequence({0, 1}));
  reserved.push_back(Sequence({2, kNoEvent, 3}));
  EXPECT_EQ(service.Ingest(SequenceDatabase(std::move(reserved))).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Stats().num_sequences, 0u);
  EXPECT_EQ(service.Stats().alphabet_size, 0u);
  ASSERT_TRUE(service.Ingest(ExampleDatabase()).ok());
  EXPECT_EQ(service.Stats().num_sequences, 3u);
}

}  // namespace
}  // namespace gsgrow
