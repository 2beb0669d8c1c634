// Micro-benchmarks (google-benchmark) for the core primitives of §III-D:
// inverted-index construction, next() queries (binary-search point queries
// vs the galloping PositionCursor, and its backward PrevBefore twin), root
// instance sets, cursor-based INSgrow steps, the DFS's append growth of a
// whole node, event-slot lookups in one block, one CloGSgrow closure check
// (DESIGN.md §5), and whole supComp runs as pattern length grows. The Setup
// rows split the serving stack's bulk load (text parse,
// MiningService::Ingest in memory and durable, first Snapshot) on the Quest
// D5C20N10S20 corpus, next to the batch index build of the same database.
// SnapshotSmallDelta times one small-delta snapshot publish on the serving
// corpus. ParseServeCommand and ServeCacheHit split the serving front end:
// the protocol parse alone, and a whole cache hit (parse, Execute, format).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/growth_engine.h"
#include "core/instance_growth.h"
#include "core/inverted_index.h"
#include "core/miner_options.h"
#include "datagen/models.h"
#include "datagen/quest_generator.h"
#include "io/request_io.h"
#include "io/text_format.h"
#include "serve/incremental_index.h"
#include "serve/mining_service.h"

namespace gsgrow {
namespace {

const SequenceDatabase& TestDb() {
  static SequenceDatabase* db = [] {
    QuestParams params;
    params.num_sequences = 2000;
    params.avg_sequence_length = 50;
    params.num_events = 500;
    params.avg_pattern_length = 10;
    params.seed = 5;
    return new SequenceDatabase(GenerateQuest(params));
  }();
  return *db;
}

const InvertedIndex& TestIndex() {
  static InvertedIndex* index = new InvertedIndex(TestDb());
  return *index;
}

// Dense corpus: small alphabet over long sequences, so per-(sequence,
// event) position lists are long and support sets carry many instances per
// sequence run — the regime the cursor's run-resolved galloping targets
// (and the shape of the closure-heavy ablation config).
const SequenceDatabase& DenseDb() {
  static SequenceDatabase* db = [] {
    QuestParams params;
    params.num_sequences = 1000;
    params.avg_sequence_length = 100;
    params.num_events = 25;
    params.avg_pattern_length = 8;
    params.seed = 7;
    return new SequenceDatabase(GenerateQuest(params));
  }();
  return *db;
}

const InvertedIndex& DenseIndex() {
  static InvertedIndex* index = new InvertedIndex(DenseDb());
  return *index;
}

// Long-list corpus: one multi-thousand-event sequence over a 5-event
// alphabet, so each (sequence, event) position list runs to thousands of
// entries and the cursor's galloping search covers long distances.
const SequenceDatabase& LongDb() {
  static SequenceDatabase* db = [] {
    std::vector<EventId> events;
    events.reserve(40000);
    uint64_t x = 88172645463325252ull;  // xorshift64 — deterministic stream
    for (int i = 0; i < 40000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      events.push_back(static_cast<EventId>(x % 5));
    }
    std::vector<Sequence> sequences;
    sequences.emplace_back(std::move(events));
    return new SequenceDatabase(std::move(sequences));
  }();
  return *db;
}

const InvertedIndex& LongIndex() {
  static InvertedIndex* index = new InvertedIndex(LongDb());
  return *index;
}

// Most frequent events of a corpus, for stable pattern construction.
std::vector<EventId> TopEvents(const InvertedIndex& index, size_t k) {
  std::vector<EventId> events(index.present_events().begin(),
                              index.present_events().end());
  std::sort(events.begin(), events.end(), [&](EventId a, EventId b) {
    return index.TotalCount(a) > index.TotalCount(b);
  });
  events.resize(std::min(k, events.size()));
  return events;
}

void BM_IndexBuild(benchmark::State& state) {
  const SequenceDatabase& db = TestDb();
  for (auto _ : state) {
    InvertedIndex index(db);
    benchmark::DoNotOptimize(index.alphabet_size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.Stats().total_length));
}
BENCHMARK(BM_IndexBuild);

void BM_NextQuery(benchmark::State& state) {
  const InvertedIndex& index = TestIndex();
  EventId e = TopEvents(index, 1)[0];
  SeqId seq = *index.Postings(e).begin();
  Position p = 0;
  for (auto _ : state) {
    Position next = index.NextAtOrAfter(seq, e, p);
    p = (next == kNoPosition) ? 0 : next + 1;
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NextQuery);

// The same rising-bound query stream answered by one PositionCursor per
// sweep: the event slot is resolved once and queries gallop forward. The
// sweep runs over the LONGEST position list of the corpus's most frequent
// event, not a degenerate short list.
void NextQueryCursor(benchmark::State& state, const InvertedIndex& index) {
  EventId e = TopEvents(index, 1)[0];
  SeqId seq = *index.Postings(e).begin();
  for (const SeqId candidate : index.Postings(e)) {
    if (index.Count(candidate, e) > index.Count(seq, e)) seq = candidate;
  }
  PositionCursor cursor = index.Cursor(seq, e);
  Position p = 0;
  for (auto _ : state) {
    Position next = cursor.NextAtOrAfter(p);
    if (next == kNoPosition) {
      cursor = index.Cursor(seq, e);
      p = 0;
      next = cursor.NextAtOrAfter(p);
    }
    p = next + 1;
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_NextQueryCursor(benchmark::State& state) {
  NextQueryCursor(state, TestIndex());
}
BENCHMARK(BM_NextQueryCursor);

// The backward twin: falling-bound PrevBefore queries over the same list,
// the query shape of the closure check's rightmost landmark columns.
void BM_PrevQueryCursor(benchmark::State& state) {
  const InvertedIndex& index = TestIndex();
  EventId e = TopEvents(index, 1)[0];
  SeqId seq = *index.Postings(e).begin();
  for (const SeqId candidate : index.Postings(e)) {
    if (index.Count(candidate, e) > index.Count(seq, e)) seq = candidate;
  }
  PositionCursor cursor = index.Cursor(seq, e);
  Position bound = kNoPosition;
  for (auto _ : state) {
    Position prev = cursor.PrevBefore(bound);
    if (prev == kNoPosition) {
      cursor = index.Cursor(seq, e);
      prev = cursor.PrevBefore(kNoPosition);
    }
    bound = prev;
    benchmark::DoNotOptimize(prev);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrevQueryCursor);

void BM_NextQueryCursorDense(benchmark::State& state) {
  NextQueryCursor(state, DenseIndex());
}
BENCHMARK(BM_NextQueryCursorDense);

void BM_NextQueryCursorLong(benchmark::State& state) {
  NextQueryCursor(state, LongIndex());
}
BENCHMARK(BM_NextQueryCursorLong);

// Rising-bound queries with a large stride: every query gallops past
// hundreds of positions.
void BM_NextQueryCursorSkipLong(benchmark::State& state) {
  const InvertedIndex& index = LongIndex();
  EventId e = TopEvents(index, 1)[0];
  SeqId seq = *index.Postings(e).begin();
  for (const SeqId candidate : index.Postings(e)) {
    if (index.Count(candidate, e) > index.Count(seq, e)) seq = candidate;
  }
  const Position limit = index.SequenceLength(seq);
  PositionCursor cursor = index.Cursor(seq, e);
  Position p = 0;
  for (auto _ : state) {
    Position next = cursor.NextAtOrAfter(p);
    if (next == kNoPosition) {
      cursor = index.Cursor(seq, e);
      p = 0;
      next = cursor.NextAtOrAfter(p);
    }
    p = (next + 997 < limit) ? next + 997 : limit;
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NextQueryCursorSkipLong);

void BM_RootInstances(benchmark::State& state) {
  const InvertedIndex& index = TestIndex();
  EventId e = TopEvents(index, 1)[0];
  for (auto _ : state) {
    SupportSet set = RootInstances(index, e);
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RootInstances);

// One INSgrow step through the production hot path: cursor-based queries
// into a reused scratch buffer (zero steady-state allocations).
void INSgrow(benchmark::State& state, const InvertedIndex& index) {
  std::vector<EventId> top = TopEvents(index, 2);
  SupportSet base = RootInstances(index, top[0]);
  SupportSet scratch;
  uint64_t queries = 0;
  for (auto _ : state) {
    GrowSupportSetInto(index, base, top[1], scratch, &queries);
    benchmark::DoNotOptimize(scratch.size());
  }
  // Items = instances scanned per growth.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(base.size()));
}

void BM_INSgrow(benchmark::State& state) { INSgrow(state, TestIndex()); }
BENCHMARK(BM_INSgrow);

void BM_INSgrowDense(benchmark::State& state) {
  INSgrow(state, DenseIndex());
}
BENCHMARK(BM_INSgrowDense);

// One DFS node's append step: its support set, its candidate events and
// the threshold min(min_support, sup(P)) the engine filters them against.
struct AppendNode {
  const InvertedIndex* index = nullptr;
  SupportSet set;
  std::vector<EventId> candidates;
  uint64_t threshold = 0;
};

// A root of the mine_wide benchmark corpus (Quest D5C20N10S20, seed 1,
// min_sup 14): the most frequent event, with every frequent root as a
// candidate — the widest candidate list the DFS sees.
const AppendNode& QuestRootNode() {
  static const AppendNode* node = [] {
    QuestParams params;  // D5C20N10S20
    params.seed = 1;
    const auto* index =
        new InvertedIndex(*new SequenceDatabase(GenerateQuest(params)));
    constexpr uint64_t kMinSupport = 14;
    auto* n = new AppendNode;
    n->index = index;
    n->set = RootInstances(*index, TopEvents(*index, 1)[0]);
    for (EventId e : index->present_events()) {
      if (index->TotalCount(e) >= kMinSupport) n->candidates.push_back(e);
    }
    n->threshold = std::min<uint64_t>(kMinSupport, n->set.size());
    return n;
  }();
  return *node;
}

// The serving corpus: Quest D5C20N2S8, generator seed 42, 5,000 sequences.
const SequenceDatabase& ServingDb() {
  static SequenceDatabase* db = [] {
    QuestParams params;
    params.num_sequences = 5000;
    params.avg_sequence_length = 20;
    params.num_events = 2000;
    params.avg_pattern_length = 8;
    params.seed = 42;
    return new SequenceDatabase(GenerateQuest(params));
  }();
  return *db;
}

// A root of the serving corpus (Quest D5C20N2S8, generator seed 42, 5,000
// sequences): its most frequent event, with the frequent roots at the query
// pool's rank-8 floor (min_sup = the count of the ninth most frequent
// event) as candidates: a short list against blocks of about 18 distinct
// events, where QuestRootNode is a long list. AppendOccurrenceBound's
// per-run rule walks these blocks; before it weighed the search's log
// factor, it binary-searched each candidate in them.
const AppendNode& ServeRootNode() {
  static const AppendNode* node = [] {
    const auto* index = new InvertedIndex(ServingDb());
    const std::vector<EventId> top = TopEvents(*index, 9);
    const uint64_t min_support = index->TotalCount(top.back());
    auto* n = new AppendNode;
    n->index = index;
    n->set = RootInstances(*index, top[0]);
    for (EventId e : index->present_events()) {
      if (index->TotalCount(e) >= min_support) n->candidates.push_back(e);
    }
    n->threshold = std::min<uint64_t>(min_support, n->set.size());
    return n;
  }();
  return *node;
}

// A node of the mine_deep benchmark corpus (JBoss-like traces, min_sup 60)
// with the short inherited candidate list of a deep node: from the most
// frequent event, descend to the most frequent append child, each step
// keeping the candidates still frequent, until at most four remain.
const AppendNode& JBossNode() {
  static const AppendNode* node = [] {
    const auto* index =
        new InvertedIndex(*new SequenceDatabase(GenerateJBossTraces(28, 11)));
    constexpr uint64_t kMinSupport = 60;
    auto* n = new AppendNode;
    n->index = index;
    n->set = RootInstances(*index, TopEvents(*index, 1)[0]);
    n->candidates = index->present_events();
    while (n->candidates.size() > 4) {
      std::vector<EventId> frequent;
      SupportSet best;
      for (EventId e : n->candidates) {
        SupportSet child = GrowSupportSet(*index, n->set, e);
        if (child.size() < kMinSupport) continue;
        frequent.push_back(e);
        if (child.size() > best.size()) best = std::move(child);
      }
      if (frequent.empty()) break;
      n->set = std::move(best);
      n->candidates = std::move(frequent);
    }
    n->threshold = std::min<uint64_t>(kMinSupport, n->set.size());
    return n;
  }();
  return *node;
}

// Arg 0: the engine's append step (AppendOccurrenceBound: one bound pass,
// then growth of the kept candidates from the slots it found). Arg 1: the
// same pass, but each kept candidate grown on its own with
// GrowSupportSetInto, which searches its slot in every sequence of the node.
void AppendGrowth(benchmark::State& state, const AppendNode& node) {
  const InvertedIndex& index = *node.index;
  AppendOccurrenceBound growth;
  std::vector<SupportSet> children;
  uint64_t queries = 0;
  size_t kept = 0;
  for (auto _ : state) {
    const std::span<const EventId> to_grow =
        growth.Filter(index, node.set, node.candidates, node.threshold);
    kept = to_grow.size();
    children.resize(kept);
    if (state.range(0) == 0) {
      growth.Grow(children, &queries);
    } else {
      for (size_t j = 0; j < kept; ++j) {
        GrowSupportSetInto(index, node.set, to_grow[j], children[j], &queries);
      }
    }
    benchmark::DoNotOptimize(children.data());
  }
  state.counters["candidates"] = static_cast<double>(node.candidates.size());
  state.counters["grown"] = static_cast<double>(kept);
  state.counters["instances"] = static_cast<double>(node.set.size());
  // Items = candidates decided per node.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(node.candidates.size()));
}

void BM_AppendGrowthQuestRoot(benchmark::State& state) {
  AppendGrowth(state, QuestRootNode());
}
BENCHMARK(BM_AppendGrowthQuestRoot)->ArgName("per_candidate")->Arg(0)->Arg(1);

void BM_AppendGrowthServeRoot(benchmark::State& state) {
  AppendGrowth(state, ServeRootNode());
}
BENCHMARK(BM_AppendGrowthServeRoot)->ArgName("per_candidate")->Arg(0)->Arg(1);

void BM_AppendGrowthJBossNode(benchmark::State& state) {
  AppendGrowth(state, JBossNode());
}
BENCHMARK(BM_AppendGrowthJBossNode)->ArgName("per_candidate")->Arg(0)->Arg(1);

// Event-slot lookups in one block of range(0) distinct events (18: a
// serving-corpus sequence; 64: a long trace), half of them present and
// half absent, in random order. Arg lower_bound=0 is SeqBlock::SeekSlot,
// lower_bound=1 the std::lower_bound search it replaced.
void BM_EventSlot(benchmark::State& state) {
  const size_t num_events = static_cast<size_t>(state.range(0));
  uint64_t x = 0x2545f4914f6cdd1dull;  // xorshift64 — deterministic stream
  const auto draw = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // Even ids are present, odd ids absent.
  std::vector<EventId> events;
  for (size_t k = 0; k < num_events; ++k) {
    events.push_back(static_cast<EventId>(2 * k));
  }
  const std::vector<uint32_t> offsets(num_events + 1, 0);
  const InvertedIndex::SeqBlock block{events, offsets, {}};
  std::vector<EventId> queries(4096);
  for (EventId& q : queries) {
    q = static_cast<EventId>(draw() % (2 * num_events));
  }
  uint64_t found = 0;
  for (auto _ : state) {
    for (const EventId q : queries) {
      if (state.range(1) == 0) {
        found += events[block.SeekSlot(q)] == q;
      } else {
        const auto it = std::lower_bound(events.begin(), events.end(), q);
        found += it != events.end() && *it == q;
      }
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_EventSlot)
    ->ArgNames({"events", "lower_bound"})
    ->ArgsProduct({{18, 64}, {0, 1}});

// One full CloGSgrow closure check (CCheck + LBCheck scan) on a
// representative node of the dense corpus: both verdicts of one node.
void BM_ClosureCheck(benchmark::State& state) {
  const InvertedIndex& index = DenseIndex();
  std::vector<EventId> top = TopEvents(index, 3);
  const std::vector<EventId> pattern = {top[0], top[1], top[2], top[0]};
  std::vector<SupportSet> prefix_sets;
  std::vector<uint64_t> supports;
  for (size_t j = 1; j <= pattern.size(); ++j) {
    Pattern prefix(std::vector<EventId>(pattern.begin(), pattern.begin() + j));
    SupportSet set = ComputeSupportSet(index, prefix);
    supports.push_back(set.size());
    prefix_sets.push_back(std::move(set));
  }
  if (supports.back() == 0) {
    state.SkipWithError("pattern has no instances; pick denser events");
    return;
  }
  MinerOptions options;
  ClosurePruning pruning(index, options);
  MiningStats stats;
  const GrowthNode node{pattern, prefix_sets, supports, stats};
  for (auto _ : state) {
    // With LBCheck on (the default) the subtree verdict runs the scan; the
    // emit verdict then reads its result, or runs the scan itself when
    // LBCheck is off.
    const bool prune = pruning.PruneSubtree(node);
    const bool emit = !prune && pruning.ShouldEmit(node, false);
    benchmark::DoNotOptimize(prune);
    benchmark::DoNotOptimize(emit);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ClosureCheck);

void BM_SupComp(benchmark::State& state) {
  const InvertedIndex& index = TestIndex();
  const size_t len = static_cast<size_t>(state.range(0));
  std::vector<EventId> top = TopEvents(index, 4);
  std::vector<EventId> events;
  for (size_t i = 0; i < len; ++i) events.push_back(top[i % top.size()]);
  Pattern pattern(events);
  for (auto _ : state) {
    uint64_t sup = ComputeSupport(index, pattern);
    benchmark::DoNotOptimize(sup);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(len));
}
BENCHMARK(BM_SupComp)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_FullSupportSet(benchmark::State& state) {
  const InvertedIndex& index = TestIndex();
  std::vector<EventId> top = TopEvents(index, 3);
  Pattern pattern({top[0], top[1], top[2]});
  for (auto _ : state) {
    auto set = ComputeFullSupportSet(index, pattern);
    benchmark::DoNotOptimize(set.size());
  }
}
BENCHMARK(BM_FullSupportSet);

// Bulk-load corpus: Quest D5C20N10S20 (the QuestParams defaults), as text.
const std::string& SetupCorpusText() {
  static std::string* text = [] {
    QuestParams params;
    params.seed = 1;
    return new std::string(WriteTextDatabase(GenerateQuest(params)));
  }();
  return *text;
}

const SequenceDatabase& SetupDb() {
  static SequenceDatabase* db =
      new SequenceDatabase(ParseTextDatabase(SetupCorpusText()).value());
  return *db;
}

void SetSetupItems(benchmark::State& state) {
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(SetupDb().Stats().total_length));
}

void BM_SetupParse(benchmark::State& state) {
  const std::string& text = SetupCorpusText();
  for (auto _ : state) {
    Result<SequenceDatabase> db = ParseTextDatabase(text);
    benchmark::DoNotOptimize(db.ok());
  }
  SetSetupItems(state);
}
BENCHMARK(BM_SetupParse)->Unit(benchmark::kMillisecond);

void BM_SetupIngest(benchmark::State& state) {
  const SequenceDatabase& db = SetupDb();
  for (auto _ : state) {
    state.PauseTiming();
    auto service = std::make_unique<MiningService>();
    state.ResumeTiming();
    benchmark::DoNotOptimize(service->Ingest(db).ok());
    state.PauseTiming();
    service.reset();
    state.ResumeTiming();
  }
  SetSetupItems(state);
}
BENCHMARK(BM_SetupIngest)->Unit(benchmark::kMillisecond);

void BM_SetupFirstSnapshot(benchmark::State& state) {
  const SequenceDatabase& db = SetupDb();
  for (auto _ : state) {
    state.PauseTiming();
    auto service = std::make_unique<MiningService>();
    const bool ingested = service->Ingest(db).ok();
    state.ResumeTiming();
    benchmark::DoNotOptimize(service->Snapshot());
    state.PauseTiming();
    benchmark::DoNotOptimize(ingested);
    service.reset();
    state.ResumeTiming();
  }
  SetSetupItems(state);
}
BENCHMARK(BM_SetupFirstSnapshot)->Unit(benchmark::kMillisecond);

// The same Ingest into a durable service (default group commit) on a
// fresh temporary directory: the load logged as one commit and synced.
void BM_SetupDurableIngest(benchmark::State& state) {
  const SequenceDatabase& db = SetupDb();
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("gsgrow_bm_durable_" + std::to_string(::getpid())))
          .string();
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    DurabilityOptions options;
    options.dir = dir;
    std::unique_ptr<MiningService> service =
        std::move(MiningService::OpenDurable(options).value());
    state.ResumeTiming();
    benchmark::DoNotOptimize(service->Ingest(db).ok());
    state.PauseTiming();
    service.reset();
    state.ResumeTiming();
  }
  std::filesystem::remove_all(dir);
  SetSetupItems(state);
}
BENCHMARK(BM_SetupDurableIngest)->Unit(benchmark::kMillisecond);

// Reference row: the batch index build over the same database.
void BM_SetupBatchIndex(benchmark::State& state) {
  const SequenceDatabase& db = SetupDb();
  for (auto _ : state) {
    InvertedIndex index(db);
    benchmark::DoNotOptimize(index.alphabet_size());
  }
  SetSetupItems(state);
}
BENCHMARK(BM_SetupBatchIndex)->Unit(benchmark::kMillisecond);

// Serving-side snapshot publish: the serving corpus (Quest D5C20N2S8,
// generator seed 42, 5,000 sequences) bulk-loaded into an incremental
// index, then per iteration one appended sequence, one 4-event extension
// of an old sequence, and a Snapshot() that replaces the only view held —
// so the time per iteration is one small-delta publish plus the release
// of the previous view. Counters: the writer's reserved and live arena
// bytes at the end.
void BM_SnapshotSmallDelta(benchmark::State& state) {
  const SequenceDatabase& db = ServingDb();
  IncrementalInvertedIndex index;
  for (const Sequence& s : db.sequences()) index.AddSequence(s.events());
  InvertedIndex view = index.Snapshot();
  uint64_t x = 0x9e3779b97f4a7c15ull;  // xorshift64 — deterministic stream
  size_t next = 0;
  for (auto _ : state) {
    index.AddSequence(db[next % db.size()].events());
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::vector<EventId>& payload = db[(next + 1) % db.size()].events();
    const size_t extension = std::min<size_t>(4, payload.size());
    const SeqId target = static_cast<SeqId>(x % index.num_sequences());
    index.AppendToSequence(target, std::span(payload).first(extension));
    view = index.Snapshot();
    benchmark::DoNotOptimize(view.num_sequences());
    ++next;
  }
  state.counters["reserved_bytes"] =
      static_cast<double>(index.reserved_bytes());
  state.counters["live_bytes"] = static_cast<double>(index.live_bytes());
}
BENCHMARK(BM_SnapshotSmallDelta)->Unit(benchmark::kMicrosecond);

// Protocol lines of the shapes in e2ebench's serve_read query pool, on the
// serving corpus: closed, all, top-K, gap and annotated queries, name
// filters of 8 and 12 events, and print limits. Floors are the counts of
// frequency-ranked events, and filters name the most frequent events.
const std::vector<std::string>& ServeQueryLines() {
  static const std::vector<std::string>* lines = [] {
    const InvertedIndex index(ServingDb());
    const std::vector<EventId> top = TopEvents(index, 16);
    const auto sup = [&](size_t rank) {
      return std::to_string(std::max<uint64_t>(2, index.TotalCount(top[rank])));
    };
    const auto events = [&](size_t from, size_t to) {
      std::string list = " events=";
      for (size_t r = from; r < to; ++r) {
        if (r > from) list += ',';
        list += ServingDb().dictionary().Name(top[r]);
      }
      return list;
    };
    const std::string closed = "mine algo=closed min_sup=";
    return new std::vector<std::string>{
        closed + sup(4),
        closed + sup(5) + " max_len=3",
        "topk k=10 min_len=2 max_len=3",
        closed + sup(11) + events(0, 12),
        "mine algo=all min_sup=" + sup(3) + " max_len=2",
        closed + sup(4) + " semantics=window:w=10,seqcount",
        "mine algo=gap min_sup=" + sup(7) + " min_gap=0 max_gap=1",
        "topk k=10 min_len=2 max_len=4" + events(0, 12),
        closed + sup(15) + events(8, 16),
        closed + sup(12) + " limit=20"};
  }();
  return *lines;
}

// The front end's parse layer: ParseServeCommand over the serve_read line
// shapes, one line per iteration.
void BM_ParseServeCommand(benchmark::State& state) {
  const std::vector<std::string>& lines = ServeQueryLines();
  size_t next = 0;
  for (auto _ : state) {
    Result<ServeCommand> parsed = ParseServeCommand(lines[next]);
    benchmark::DoNotOptimize(parsed.ok());
    next = next + 1 < lines.size() ? next + 1 : 0;
  }
}
BENCHMARK(BM_ParseServeCommand);

// A cache hit end to end, as a session serves it: parse, Execute (snapshot,
// canonicalization, cache probe, copy of the cached answer) and
// FormatMineResponse, one serve_read line shape per iteration, every line
// mined once before timing.
void BM_ServeCacheHit(benchmark::State& state) {
  const std::vector<std::string>& lines = ServeQueryLines();
  MiningService service;
  if (!service.Ingest(ServingDb()).ok()) {
    state.SkipWithError("ingest failed");
    return;
  }
  for (const std::string& line : lines) {
    (void)service.Execute(ParseServeCommand(line)->request);
  }
  const uint64_t hits_before = service.Stats().cache_hits;
  size_t next = 0;
  for (auto _ : state) {
    const Result<ServeCommand> parsed = ParseServeCommand(lines[next]);
    std::shared_ptr<const ServiceSnapshot> snapshot;
    obs::RequestTrace trace;
    const MineResponse response =
        service.Execute(parsed->request, &snapshot, &trace);
    service.RecordRequestTrace(std::move(trace));
    const std::string text = FormatMineResponse(
        response, snapshot->db->dictionary(), parsed->limit);
    benchmark::DoNotOptimize(text.size());
    next = next + 1 < lines.size() ? next + 1 : 0;
  }
  state.counters["hit_ratio"] =
      static_cast<double>(service.Stats().cache_hits - hits_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ServeCacheHit);

}  // namespace
}  // namespace gsgrow

BENCHMARK_MAIN();
