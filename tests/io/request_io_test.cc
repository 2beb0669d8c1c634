// Parsing and formatting of the serve protocol (io/request_io.h).

#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "core/semantics_sink.h"
#include "core/sequence_database.h"
#include "io/request_io.h"
#include "serve/mining_service.h"
#include "serve/result_cache.h"

namespace gsgrow {
namespace {

ServeCommand MustParse(const std::string& line) {
  Result<ServeCommand> parsed = ParseServeCommand(line);
  EXPECT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
  return parsed.ok() ? *parsed : ServeCommand{};
}

TEST(RequestIo, ParsesAppendAndExtend) {
  ServeCommand append = MustParse("append login view checkout");
  EXPECT_EQ(append.verb, ServeCommand::Verb::kAppend);
  EXPECT_EQ(append.events,
            (std::vector<std::string>{"login", "view", "checkout"}));

  ServeCommand extend = MustParse("extend 12 retry login");
  EXPECT_EQ(extend.verb, ServeCommand::Verb::kExtend);
  EXPECT_EQ(extend.seq, 12u);
  EXPECT_EQ(extend.events, (std::vector<std::string>{"retry", "login"}));

  EXPECT_FALSE(ParseServeCommand("extend").ok());
  EXPECT_FALSE(ParseServeCommand("extend notanumber A").ok());
}

TEST(RequestIo, ParsesMineArguments) {
  ServeCommand mine = MustParse(
      "mine algo=all min_sup=7 max_len=3 threads=2 events=a,b,c limit=5 "
      "budget=1.5");
  EXPECT_EQ(mine.verb, ServeCommand::Verb::kMine);
  EXPECT_EQ(mine.request.miner, MineRequest::Miner::kAll);
  EXPECT_EQ(mine.request.options.min_support, 7u);
  EXPECT_EQ(mine.request.options.max_pattern_length, 3u);
  EXPECT_EQ(mine.request.options.num_threads, 2u);
  EXPECT_EQ(mine.request.event_filter,
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(mine.limit, 5u);
  EXPECT_DOUBLE_EQ(mine.request.options.time_budget_seconds, 1.5);

  // Defaults: closed mining, unlimited print.
  ServeCommand bare = MustParse("mine");
  EXPECT_EQ(bare.request.miner, MineRequest::Miner::kClosed);
  EXPECT_EQ(bare.limit, static_cast<size_t>(-1));
}

TEST(RequestIo, ParsesGapAndSemantics) {
  ServeCommand gap = MustParse("mine algo=gap min_gap=1 max_gap=4 min_sup=2");
  EXPECT_EQ(gap.request.miner, MineRequest::Miner::kGapConstrained);
  EXPECT_EQ(gap.request.gap.min_gap, 1u);
  EXPECT_EQ(gap.request.gap.max_gap, 4u);

  // Semantics specs carry their own '=' (window:w=10) — must survive the
  // key=value split.
  ServeCommand annotated =
      MustParse("mine semantics=seqcount,window:w=10 min_sup=2");
  EXPECT_TRUE(annotated.request.options.semantics.sequence_count);
  EXPECT_TRUE(annotated.request.options.semantics.fixed_window);
  EXPECT_EQ(annotated.request.options.semantics.window_width, 10u);
}

TEST(RequestIo, ParsesTopK) {
  ServeCommand topk = MustParse("topk k=5 min_len=2 max_len=6");
  EXPECT_EQ(topk.verb, ServeCommand::Verb::kTopK);
  EXPECT_EQ(topk.request.miner, MineRequest::Miner::kTopK);
  EXPECT_EQ(topk.request.options.k, 5u);
  EXPECT_EQ(topk.request.options.min_length, 2u);
  EXPECT_EQ(topk.request.options.max_pattern_length, 6u);

  // min_sup is a mine-only key.
  EXPECT_FALSE(ParseServeCommand("topk min_sup=3").ok());
}

TEST(RequestIo, RejectsUnknownKeysAndVerbs) {
  EXPECT_FALSE(ParseServeCommand("mine frobnicate=1").ok());
  EXPECT_FALSE(ParseServeCommand("mine algo=bogus").ok());
  EXPECT_FALSE(ParseServeCommand("mine min_sup=minus").ok());
  // A budget must be a positive number of seconds; NaN compares false to
  // everything, and a NaN budget would never expire.
  for (const char* budget : {"0", "-1", "nan", "-nan"}) {
    EXPECT_FALSE(
        ParseServeCommand(std::string("mine budget=") + budget).ok())
        << budget;
  }
  EXPECT_FALSE(ParseServeCommand("unknownverb").ok());
  EXPECT_FALSE(ParseServeCommand("run speed=11").ok());
  EXPECT_TRUE(ParseServeCommand("run threads=3").ok());
}

// The wire's error texts are part of the protocol (the smoke goldens pin
// some of them).
TEST(RequestIo, ErrorTextsArePinned) {
  const auto error_of = [](const std::string& line) {
    return ParseServeCommand(line).status().ToString();
  };
  EXPECT_EQ(error_of("mine min_sup=zero"),
            "InvalidArgument: mine: bad argument 'min_sup=zero' (min_sup=N)");
  EXPECT_EQ(error_of("mine max_gap=4294967296"),
            "InvalidArgument: mine: bad argument 'max_gap=4294967296' "
            "(max_gap=N)");
  EXPECT_EQ(error_of("topk budget=nan"),
            "InvalidArgument: topk: bad argument 'budget=nan' "
            "(budget=SECONDS)");
  EXPECT_EQ(error_of("mine events=,,"),
            "InvalidArgument: mine: bad argument 'events=,,' "
            "(events=name[,name...])");
  EXPECT_EQ(error_of("mine frobnicate=1"),
            "InvalidArgument: mine: bad argument 'frobnicate=1' (accepted "
            "keys: algo,min_sup,max_len,budget,threads,semantics,events,"
            "min_gap,max_gap,limit,)");
  EXPECT_EQ(error_of("topk min_sup=3"),
            "InvalidArgument: topk: bad argument 'min_sup=3' (accepted "
            "keys: k,min_len,max_len,budget,threads,semantics,events,"
            "limit,)");
  EXPECT_EQ(error_of("bogus"),
            "InvalidArgument: unknown verb 'bogus' (append, extend, mine, "
            "topk, batch, run, stats, metrics, trace, checkpoint, recover, "
            "quit)");
  EXPECT_EQ(error_of("extend 4294967295 A"),
            "InvalidArgument: extend: bad sequence id '4294967295'");
  EXPECT_EQ(error_of("trace last 0"), "InvalidArgument: trace: bad count '0'");
}

// A key holding a comma is an unknown key, not a run of known keys to be
// silently ignored.
TEST(RequestIo, KeyWithACommaIsUnknown) {
  for (const char* line : {"mine algo,min_sup=5", "topk k,min_len=2"}) {
    const Result<ServeCommand> parsed = ParseServeCommand(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_NE(parsed.status().message().find("accepted keys"),
              std::string::npos);
  }
}

// Numbers are read by the checked conversion of the CLI flags, at their
// full range and no further.
TEST(RequestIo, NumbersAtTheirBounds) {
  EXPECT_EQ(MustParse("mine min_sup=18446744073709551615")
                .request.options.min_support,
            std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(ParseServeCommand("mine min_sup=18446744073709551616").ok());
  EXPECT_EQ(MustParse("mine algo=gap max_gap=4294967295").request.gap.max_gap,
            std::numeric_limits<uint32_t>::max());
  EXPECT_FALSE(ParseServeCommand("mine max_gap=4294967296").ok());
  EXPECT_EQ(MustParse("mine min_sup=0").request.options.min_support, 0u);
  EXPECT_FALSE(ParseServeCommand("mine min_sup=-0").ok());
  EXPECT_EQ(MustParse("mine budget=inf").request.options.time_budget_seconds,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(MustParse("mine budget=4.9e-324")
                .request.options.time_budget_seconds,
            std::numeric_limits<double>::denorm_min());
  // Only ' ' and '\t' separate tokens; other ASCII space around a number
  // is ignored by the conversion, as before.
  EXPECT_EQ(MustParse("mine min_sup=5\r").request.options.min_support, 5u);
  // Repeated keys: the last one wins.
  EXPECT_EQ(MustParse("mine min_sup=2 min_sup=3").request.options.min_support,
            3u);
  EXPECT_EQ(MustParse("mine events=a events=b,c").request.event_filter,
            (std::vector<std::string>{"b", "c"}));
}

TEST(RequestIo, FormatsResponses) {
  SequenceDatabase db = MakeDatabaseFromStrings({"ABC"});
  MineResponse response;
  response.epoch = 4;
  response.patterns.Append(std::vector<EventId>{0u, 1u}, 3);
  response.patterns.Append(std::vector<EventId>{2u}, 2);
  EXPECT_EQ(FormatMineResponse(response, db.dictionary(),
                               static_cast<size_t>(-1)),
            "result patterns=2 epoch=4\n3\tA B\n2\tC\n");
  EXPECT_EQ(FormatMineResponse(response, db.dictionary(), 1),
            "result patterns=2 epoch=4\n3\tA B\n");

  response.stats.truncated = true;
  response.stats.truncated_reason = "time_budget";
  EXPECT_EQ(FormatMineResponse(response, db.dictionary(), 0),
            "result patterns=2 epoch=4 truncated=time_budget\n");

  MineResponse failed;
  failed.status = Status::InvalidArgument("k must be >= 1");
  EXPECT_EQ(FormatMineResponse(failed, db.dictionary(), 9),
            "error InvalidArgument: k must be >= 1\n");
}

// The streaming writer and FormatMineResponse must agree byte for byte on
// every response shape the protocol can produce.
TEST(RequestIo, StreamingWriterEqualsFormatter) {
  SequenceDatabase db = MakeDatabaseFromStrings(
      {"ABCACBDDBACDBACADDABCACBDDBACDBACADD",
       "ACDBACADDABCACBDDBACDBACADDABCACBDDB"});
  std::vector<MineResponse> responses;
  responses.emplace_back();  // an empty answer
  MineResponse failed;
  failed.status = Status::InvalidArgument("k must be >= 1");
  responses.push_back(failed);
  for (bool annotate : {false, true}) {
    MineRequest request;
    request.miner = MineRequest::Miner::kAll;
    request.options.min_support = 1;
    request.options.max_pattern_length = 7;
    if (annotate) {
      request.options.semantics = SemanticsOptions::All(4, 0, 3);
    }
    MineResponse mined = MiningService::ExecuteOn(
        ServiceSnapshot{InvertedIndex(db),
                        std::make_shared<SnapshotNames>(db.dictionary()), 7},
        request);
    ASSERT_TRUE(mined.status.ok());
    // Large enough that the writer hands the stream several chunks.
    ASSERT_GT(FormatMineResponse(mined, db.dictionary(), SIZE_MAX).size(),
              size_t{128} << 10);
    responses.push_back(mined);
    mined.stats.truncated = true;
    mined.stats.truncated_reason = "max_patterns";
    responses.push_back(mined);
  }
  for (size_t r = 0; r < responses.size(); ++r) {
    for (size_t limit : {size_t{0}, size_t{1}, size_t{1000}, SIZE_MAX}) {
      std::ostringstream streamed;
      WriteMineResponse(responses[r], db.dictionary(), limit, streamed);
      EXPECT_EQ(streamed.str(),
                FormatMineResponse(responses[r], db.dictionary(), limit))
          << "response " << r << " limit=" << limit;
    }
  }
}

TEST(RequestIo, ZeroMaxLenAnswersAnError) {
  // max_len=0 parses (it is a number) but admits no pattern: executing it
  // must answer an error line, not the single-event roots.
  MiningService service;
  ASSERT_TRUE(service.Append({"A", "B", "A", "B"}).ok());
  const std::shared_ptr<const ServiceSnapshot> snapshot = service.Snapshot();
  for (const char* line :
       {"mine algo=all min_sup=1 max_len=0", "mine max_len=0",
        "topk k=2 max_len=0"}) {
    const ServeCommand command = MustParse(line);
    EXPECT_EQ(command.request.options.max_pattern_length, 0u) << line;
    EXPECT_EQ(FormatMineResponse(
                  MiningService::ExecuteOn(*snapshot, command.request),
                  snapshot->db->dictionary(), command.limit),
              "error InvalidArgument: max_pattern_length must be >= 1\n")
        << line;
  }
}

TEST(RequestIo, FormatsStats) {
  ServiceStats stats;
  stats.num_sequences = 3;
  stats.alphabet_size = 9;
  stats.total_events = 41;
  stats.epoch = 2;
  stats.appends = 5;
  stats.queries = 7;
  stats.cache_hits = 4;
  stats.cache_misses = 3;
  stats.cache_revalidated = 2;
  stats.cache_evicted = 1;
  stats.wal_segments = 2;
  stats.wal_live_bytes = 4096;
  stats.checkpoints = 1;
  stats.wal_replay_records = 6;
  // recover_seconds is wall-clock and must NOT appear in the line
  // (golden-transcript determinism; service_types.h).
  stats.recover_seconds = 1.5;
  EXPECT_EQ(FormatServiceStats(stats),
            "stats sequences=3 alphabet=9 events=41 epoch=2 appends=5 "
            "queries=7 cache_hits=4 cache_misses=3 cache_revalidated=2 "
            "cache_evicted=1 wal_segments=2 wal_bytes=4096 checkpoints=1 "
            "replay_records=6");
}

// ---------------------------------------------------------------------------
// Request canonicalization (CanonicalizeMineRequest / CanonicalRequestKey):
// every member of an equivalence class of requests — permuted filters,
// explicit defaults, execution-knob differences — must collapse to ONE
// cache key, and requests with different answers must not.

std::string KeyOf(const MineRequest& request) {
  return CanonicalRequestKey(request).text();
}

std::string KeyOf(const std::string& line) {
  return KeyOf(MustParse(line).request);
}

TEST(RequestCanonicalization, EquivalenceClassCollapsesToOneKey) {
  const std::string base = KeyOf("mine algo=closed min_sup=2 events=a,b");
  // Permuted + duplicated filter names.
  EXPECT_EQ(base, KeyOf("mine algo=closed min_sup=2 events=b,a,a,b"));
  // Extra whitespace between protocol tokens.
  EXPECT_EQ(base, KeyOf("mine   algo=closed    min_sup=2  events=a,b"));
  // Thread count is answer-invariant (parallel parity), not identity.
  EXPECT_EQ(base, KeyOf("mine algo=closed min_sup=2 events=a,b threads=8"));
  // Key order on the wire.
  EXPECT_EQ(base, KeyOf("mine events=a,b min_sup=2 algo=closed"));
}

TEST(RequestCanonicalization, ExplicitDefaultsEqualElidedOnes) {
  const std::string base = KeyOf("mine algo=closed min_sup=2");
  // A programmatic request carrying stale fields of INACTIVE miners and
  // non-default execution knobs: same canonical identity.
  MineRequest programmatic;
  programmatic.miner = MineRequest::Miner::kClosed;
  programmatic.options.min_support = 2;
  programmatic.options.num_threads = 16;
  programmatic.options.use_landmark_border_pruning = false;
  programmatic.options.k = 99;           // top-K only; closed ignores it
  programmatic.options.min_length = 7;  // top-K only
  programmatic.gap.min_gap = 1;         // gap miner only
  programmatic.gap.max_gap = 3;
  programmatic.options.support_floor_hint = 42;  // internal, never identity
  EXPECT_EQ(base, KeyOf(programmatic));

  // Spelling out a default field is the same as eliding it.
  MineRequest explicit_default = programmatic;
  explicit_default.options.max_pattern_length =
      std::numeric_limits<size_t>::max();
  explicit_default.options.time_budget_seconds =
      std::numeric_limits<double>::infinity();
  EXPECT_EQ(base, KeyOf(explicit_default));
}

TEST(RequestCanonicalization, SemanticsSpecsNormalize) {
  // Measure order in the spec string is presentation, not identity.
  EXPECT_EQ(KeyOf("mine min_sup=2 semantics=seqcount,window:w=10"),
            KeyOf("mine min_sup=2 semantics=window:w=10,seqcount"));
  // Parameters of DISABLED measures are dead state: a stale window width
  // with fixed_window off must not split the key space.
  MineRequest plain;
  plain.options.min_support = 2;
  plain.options.semantics.sequence_count = true;
  MineRequest stale = plain;
  stale.options.semantics.window_width = 99;  // fixed_window is off
  EXPECT_EQ(KeyOf(plain), KeyOf(stale));
  // With NO measure enabled the whole block resets.
  MineRequest none;
  none.options.min_support = 2;
  MineRequest stale_none = none;
  stale_none.options.semantics.window_width = 99;
  EXPECT_EQ(KeyOf(none), KeyOf(stale_none));
}

// Canonicalization resets the parameters of disabled measures directly;
// that must equal a round trip of the selection through its spec string,
// for every selection.
TEST(RequestCanonicalization, SemanticsResetEqualsSpecRoundTrip) {
  for (unsigned bits = 0; bits < 64; ++bits) {
    for (const size_t width : {size_t{1}, size_t{10}, size_t{99}}) {
      for (const auto& [min_gap, max_gap] :
           {std::pair<size_t, size_t>{0, SIZE_MAX}, {2, 5}, {3, SIZE_MAX},
            {0, 0}}) {
        MineRequest request;
        SemanticsOptions& s = request.options.semantics;
        s.sequence_count = (bits & 1) != 0;
        s.fixed_window = (bits & 2) != 0;
        s.minimal_window = (bits & 4) != 0;
        s.gap_occurrences = (bits & 8) != 0;
        s.interaction = (bits & 16) != 0;
        s.iterative = (bits & 32) != 0;
        s.window_width = width;
        s.min_gap = min_gap;
        s.max_gap = max_gap;
        SemanticsOptions round_trip;
        if (s.AnyEnabled()) {
          Result<SemanticsOptions> parsed =
              ParseSemanticsSpec(SemanticsSpecToString(s));
          ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
          round_trip = *parsed;
        }
        CanonicalizeMineRequest(&request);
        EXPECT_EQ(request.options.semantics, round_trip)
            << bits << " w=" << width << " gap=" << min_gap << ".."
            << max_gap;
      }
    }
  }
}

// The key factory hands back the canonical request it built: the same
// request CanonicalizeMineRequest makes, and the same key either way.
TEST(RequestCanonicalization, KeyFactoryHandsBackTheCanonicalRequest) {
  const MineRequest request =
      MustParse("mine algo=gap min_gap=1 max_gap=4 min_sup=3 events=c,a,b,a "
                "threads=4 semantics=window:w=5,seqcount")
          .request;
  MineRequest handed;
  const ResultCacheKey key = CanonicalRequestKey(request, &handed);
  MineRequest expected = request;
  CanonicalizeMineRequest(&expected);
  EXPECT_EQ(key.text(), CanonicalRequestKey(request).text());
  EXPECT_EQ(key.text(), CanonicalRequestKey(expected).text());
  EXPECT_EQ(handed.event_filter, expected.event_filter);
  EXPECT_EQ(handed.options.semantics, expected.options.semantics);
  EXPECT_EQ(handed.options.num_threads, 1u);
  EXPECT_EQ(key.text(),
            "algo=gap min_sup=3 min_gap=1 max_gap=4 "
            "semantics=sequence_count,fixed_window:w=5 events=a\x1f"
            "b\x1f"
            "c");
}

TEST(RequestCanonicalization, CanonicalizationIsIdempotent) {
  MineRequest request =
      MustParse("mine algo=gap min_gap=1 max_gap=4 min_sup=3 events=c,a,b")
          .request;
  MineRequest once = request;
  CanonicalizeMineRequest(&once);
  MineRequest twice = once;
  CanonicalizeMineRequest(&twice);
  EXPECT_EQ(KeyOf(once), KeyOf(twice));
  EXPECT_EQ(KeyOf(request), KeyOf(once));
  EXPECT_EQ(once.event_filter, twice.event_filter);
  EXPECT_EQ(once.options.min_support, twice.options.min_support);
}

TEST(RequestCanonicalization, DistinctRequestsKeepDistinctKeys) {
  const std::string closed2 = KeyOf("mine algo=closed min_sup=2");
  EXPECT_NE(closed2, KeyOf("mine algo=all min_sup=2"));
  EXPECT_NE(closed2, KeyOf("mine algo=closed min_sup=3"));
  EXPECT_NE(closed2, KeyOf("mine algo=closed min_sup=2 events=a"));
  EXPECT_NE(closed2, KeyOf("mine algo=closed min_sup=2 max_len=3"));
  EXPECT_NE(closed2, KeyOf("mine algo=closed min_sup=2 semantics=seqcount"));
  EXPECT_NE(closed2, KeyOf("topk k=10"));
  EXPECT_NE(KeyOf("topk k=10"), KeyOf("topk k=11"));
  EXPECT_NE(KeyOf("topk k=10 min_len=1"), KeyOf("topk k=10 min_len=2"));
  EXPECT_NE(KeyOf("mine algo=gap min_sup=2 max_gap=1"),
            KeyOf("mine algo=gap min_sup=2 max_gap=2"));
  EXPECT_NE(KeyOf("mine algo=closed min_sup=2 events=a,b"),
            KeyOf("mine algo=closed min_sup=2 events=a,c"));
  // A finite budget stays identity-bearing (such requests are uncacheable,
  // but the key must still not conflate them with unlimited runs).
  EXPECT_NE(closed2, KeyOf("mine algo=closed min_sup=2 budget=1.5"));
}

TEST(RequestCanonicalization, NameFilterReplacesIdRestriction) {
  // The execution path ignores restrict_alphabet when event_filter is
  // non-empty; the key must agree with that precedence.
  MineRequest filtered;
  filtered.options.min_support = 2;
  filtered.event_filter = {"a", "b"};
  MineRequest filtered_with_ids = filtered;
  filtered_with_ids.options.restrict_alphabet = {7, 9};
  EXPECT_EQ(KeyOf(filtered), KeyOf(filtered_with_ids));

  // Without a name filter, the id restriction IS identity (sorted,
  // deduplicated).
  MineRequest ids_only;
  ids_only.options.min_support = 2;
  ids_only.options.restrict_alphabet = {9, 7, 7};
  MineRequest ids_sorted;
  ids_sorted.options.min_support = 2;
  ids_sorted.options.restrict_alphabet = {7, 9};
  EXPECT_EQ(KeyOf(ids_only), KeyOf(ids_sorted));
  EXPECT_NE(KeyOf(ids_only), KeyOf(filtered));
}

}  // namespace
}  // namespace gsgrow
