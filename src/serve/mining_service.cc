#include "serve/mining_service.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <system_error>
#include <thread>
#include <utility>

#include "core/clogsgrow.h"
#include "core/gap_constrained.h"
#include "core/gsgrow.h"
#include "core/parallel_engine.h"
#include "core/topk.h"
#include "obs/metrics.h"
#include "persist/file_io.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gsgrow {

namespace {

// Pre-registered metric handles (DESIGN.md §13 zero-allocation rule): the
// registry is consulted once, at first use; every record afterwards is a
// relaxed atomic through these pointers.
struct ServiceMetrics {
  obs::Counter* requests = nullptr;
  obs::Histogram* request_us = nullptr;
  std::array<obs::Histogram*, obs::kNumStages> stage{};
  obs::Counter* wal_appends = nullptr;
  obs::Histogram* wal_append_us = nullptr;
  obs::Counter* wal_syncs = nullptr;
  obs::Histogram* wal_sync_us = nullptr;
  obs::Counter* checkpoints = nullptr;
  obs::Histogram* checkpoint_us = nullptr;
};

ServiceMetrics MakeServiceMetrics() {
  ServiceMetrics m;
  m.requests = GSGROW_METRIC_COUNTER(
      "gsgrow_requests_total",
      "Requests recorded in the trace ring (queries and mutations)");
  m.request_us = GSGROW_METRIC_HISTOGRAM(
      "gsgrow_request_us", "Total request latency in microseconds");
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    m.stage[i] = GSGROW_METRIC_HISTOGRAM_LABELED(
        "gsgrow_request_stage_us",
        "Per-stage request latency in microseconds", "stage",
        obs::StageName(static_cast<obs::Stage>(i)));
  }
  m.wal_appends = GSGROW_METRIC_COUNTER("gsgrow_wal_appends_total",
                                        "WAL records appended");
  m.wal_append_us = GSGROW_METRIC_HISTOGRAM(
      "gsgrow_wal_append_us", "WAL record append latency in microseconds");
  m.wal_syncs =
      GSGROW_METRIC_COUNTER("gsgrow_wal_syncs_total", "WAL fsync calls");
  m.wal_sync_us = GSGROW_METRIC_HISTOGRAM(
      "gsgrow_wal_sync_us", "WAL fsync latency in microseconds");
  m.checkpoints = GSGROW_METRIC_COUNTER("gsgrow_checkpoints_total",
                                        "Checkpoints taken");
  m.checkpoint_us = GSGROW_METRIC_HISTOGRAM(
      "gsgrow_checkpoint_us", "Checkpoint latency in microseconds");
  return m;
}

ServiceMetrics& Metrics() {
  static ServiceMetrics metrics = MakeServiceMetrics();
  return metrics;
}

obs::Histogram* StageHistogram(obs::Stage stage) {
  return Metrics().stage[static_cast<size_t>(stage)];
}

// Trace verb for requests the service traces itself (direct Execute and
// batch workers); the serve session overrides with the protocol verb.
std::string_view MinerLabel(MineRequest::Miner miner) {
  switch (miner) {
    case MineRequest::Miner::kAll: return "mine:all";
    case MineRequest::Miner::kClosed: return "mine:closed";
    case MineRequest::Miner::kTopK: return "topk";
    case MineRequest::Miner::kGapConstrained: return "mine:gap";
  }
  return "mine";
}

// Position-space guard shared by the append paths: validated up front so
// oversized client input yields Status(kOutOfRange), not a GSGROW_CHECK
// abort deep in the index (which still holds the same bound as an
// invariant).
Status CheckPositionSpace(size_t current_length, size_t appended) {
  if (current_length + appended > static_cast<size_t>(kNoPosition)) {
    return Status::OutOfRange("sequence position space exhausted (" +
                              std::to_string(current_length) + " + " +
                              std::to_string(appended) + " events)");
  }
  return Status::OK();
}

// Name-length guard of the two name-carrying append paths: an over-long
// name is refused before it is logged or interned, so one append cannot put
// an unbounded name into the WAL and the dictionary, which every later
// copy-on-write of the names duplicates.
Status CheckEventNames(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (name.size() > kMaxEventNameBytes) {
      return Status::InvalidArgument(
          "event name of " + std::to_string(name.size()) +
          " bytes exceeds the " + std::to_string(kMaxEventNameBytes) +
          "-byte limit");
    }
  }
  return Status::OK();
}

Status CheckEventIds(std::span<const EventId> events) {
  for (const EventId e : events) {
    if (e == kNoEvent) {
      return Status::InvalidArgument("reserved event id " +
                                     std::to_string(kNoEvent));
    }
  }
  return Status::OK();
}

// What Ingest validates before logging or loading anything: the corpus
// fits the id and position spaces and holds no reserved id. Its names are
// taken as given: ParseTextDatabase caps them at kMaxEventNameBytes. Yields
// the alphabet size AddCorpus needs.
Result<EventId> CheckCorpus(const SequenceDatabase& db) {
  if (db.size() > static_cast<size_t>(kNoPosition)) {
    return Status::OutOfRange("sequence id space exhausted");
  }
  bool any = false;
  for (const Sequence& s : db.sequences()) {
    GSGROW_RETURN_NOT_OK(CheckPositionSpace(0, s.length()));
    any = any || !s.empty();
  }
  // The reserved id kNoEvent is the largest EventId: the alphabet size
  // wraps to 0 exactly when a corpus with events holds it.
  const EventId alphabet_size = db.AlphabetSize();
  if (any && alphabet_size == 0) return CheckEventIds(std::span(&kNoEvent, 1));
  return alphabet_size;
}

// A request is cacheable when its answer is a pure function of
// (canonical request, corpus): a finite time budget can truncate
// nondeterministically (wall clock), and a count-only run carries no
// patterns worth caching. Note the default budget is infinity, so ordinary
// serving traffic is cacheable.
bool CacheableRequest(const MineRequest& request) {
  return request.options.collect_patterns &&
         request.options.time_budget_seconds ==
             std::numeric_limits<double>::infinity();
}

// Only complete, successful answers enter the cache: a truncated result
// (max_patterns) is a prefix whose identity with a future cold mine is not
// guaranteed, and errors are cheap to recompute.
bool CacheableResponse(const MineResponse& response) {
  return response.status.ok() && !response.stats.truncated;
}

}  // namespace

// Declared in serve/service_types.h: the one definition of the request →
// restriction-alphabet resolution, shared by the execution path below and
// the result cache's revalidation pass. Returns false when the filter is
// non-empty but no name resolved — the caller answers with an empty result
// instead of mining unrestricted.
bool ResolveRequestAlphabet(const MineRequest& request,
                            const EventDictionary& dictionary,
                            std::vector<EventId>* restrict_alphabet) {
  if (request.event_filter.empty()) {
    *restrict_alphabet = request.options.restrict_alphabet;
    return true;
  }
  restrict_alphabet->clear();
  for (const std::string& name : request.event_filter) {
    const EventId id = dictionary.Lookup(name);
    if (id != kNoEvent) restrict_alphabet->push_back(id);
  }
  std::sort(restrict_alphabet->begin(), restrict_alphabet->end());
  restrict_alphabet->erase(
      std::unique(restrict_alphabet->begin(), restrict_alphabet->end()),
      restrict_alphabet->end());
  return !restrict_alphabet->empty();
}

MiningService::~MiningService() {
  MutexLock lock(&mutex_);
  if (durable_ && wal_.is_open()) {
    GSGROW_IGNORE_STATUS(
        wal_.Sync(),
        "best-effort shutdown flush: every record the sync policy promised "
        "durable already is; a failure here only loses kNone-mode tail "
        "records, which the policy never guaranteed");
    GSGROW_IGNORE_STATUS(wal_.Close(),
                         "process is exiting; the fd is released either way");
  }
}

// ---------------------------------------------------------------------------
// Durable mutation plumbing.

Status MiningService::LogWalRecordLocked(serve::LogRecordType type,
                                         const std::string& payload) {
  if (!durable_) return Status::OK();
  scratch_frame_.clear();
  persist::FrameWalRecord(static_cast<uint8_t>(type), payload,
                          &scratch_frame_);
  return WriteWalLocked(scratch_frame_, 1);
}

Status MiningService::WriteWalLocked(std::string_view framed,
                                     uint64_t records) {
  if (!wal_status_.ok()) return wal_status_;
  const WallTimer timer;
  Status status = wal_.AppendFramed(framed);
  Metrics().wal_append_us->Record(timer.ElapsedMicros());
  Metrics().wal_appends->Increment(records);
  if (!status.ok()) wal_status_ = status;
  return status;
}

Status MiningService::SyncWalLocked() {
  if (!wal_status_.ok()) return wal_status_;
  const WallTimer timer;
  Status status = wal_.Sync();
  Metrics().wal_sync_us->Record(timer.ElapsedMicros());
  Metrics().wal_syncs->Increment();
  if (!status.ok()) wal_status_ = status;
  return status;
}

Status MiningService::MaybeSyncWalLocked(bool force) {
  if (!durable_) return Status::OK();
  switch (dopts_.sync) {
    case DurabilityOptions::SyncMode::kEveryAppend:
      return SyncWalLocked();
    case DurabilityOptions::SyncMode::kGroupCommit:
      if (force || ++unsynced_appends_ >= dopts_.group_commit_appends) {
        unsynced_appends_ = 0;
        return SyncWalLocked();
      }
      return Status::OK();
    case DurabilityOptions::SyncMode::kNone:
      return force ? SyncWalLocked() : Status::OK();
  }
  return Status::OK();
}

void MiningService::ResolveIdsLocked(
    const std::vector<std::string>& names, std::vector<EventId>* ids,
    std::vector<std::pair<EventId, const std::string*>>* fresh) const {
  ids->reserve(names.size());
  for (const std::string& name : names) {
    EventId id = names_->dictionary().Lookup(name);
    if (id == kNoEvent) {
      // Maybe already pending within this very append (linear scan: appends
      // carry few distinct new names).
      for (const auto& [pending_id, pending_name] : *fresh) {
        if (*pending_name == name) {
          id = pending_id;
          break;
        }
      }
      if (id == kNoEvent) {
        id = static_cast<EventId>(names_->dictionary().size() +
                                  fresh->size());
        fresh->emplace_back(id, &name);
      }
    }
    ids->push_back(id);
  }
}

Status MiningService::LogMutationLocked(
    const std::vector<std::pair<EventId, const std::string*>>& fresh,
    serve::LogRecordType type, SeqId seq, std::span<const EventId> events) {
  if (!durable_) return Status::OK();
  // One mutation = one record: the interned names ride inside, so the CRC
  // makes the whole mutation atomic against crashes.
  serve::EncodeSequenceRecord(seq, fresh, events, &scratch_payload_);
  GSGROW_RETURN_NOT_OK(LogWalRecordLocked(type, scratch_payload_));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Appends. Shape shared by all four paths: validate → log → mutate → sync.
// The record hits the log (and per policy, the disk) before any in-memory
// state changes; a WAL failure leaves memory untouched. A failed SYNC after
// the mutation returns the error and sticks — the service refuses further
// writes rather than letting memory and log diverge.

Result<SeqId> MiningService::Append(const std::vector<std::string>& names,
                                    obs::RequestTrace* trace) {
  MutexLock lock(&mutex_);
  GSGROW_RETURN_NOT_OK(CheckEventNames(names));
  GSGROW_RETURN_NOT_OK(CheckPositionSpace(0, names.size()));
  if (index_.num_sequences() >= static_cast<size_t>(kNoPosition)) {
    return Status::OutOfRange("sequence id space exhausted");
  }
  std::vector<EventId> ids;
  std::vector<std::pair<EventId, const std::string*>> fresh;
  ResolveIdsLocked(names, &ids, &fresh);
  const SeqId seq = static_cast<SeqId>(index_.num_sequences());
  // The kWalSync span covers the mutation's whole durability cost: record
  // encode + log append, plus the policy-driven sync after the mutation
  // (the in-memory mutate between them is excluded on purpose).
  uint64_t wal_us = 0;
  {
    const WallTimer timer;
    GSGROW_RETURN_NOT_OK(LogMutationLocked(
        fresh, serve::LogRecordType::kAddSequence, seq, ids));
    wal_us += timer.ElapsedMicros();
  }
  for (const auto& [id, name] : fresh) {
    const EventId interned = MutableDictionaryLocked().Intern(*name);
    // invariant: ResolveIdsLocked predicted dense first-use ids under this
    // same lock; a mismatch is a bug in our own id assignment, not input.
    GSGROW_CHECK(interned == id);
  }
  const SeqId index_seq = index_.AddSequence(ids);
  // invariant: the id was read from the index under this same lock.
  GSGROW_CHECK(seq == index_seq);
  snapshot_cache_.reset();
  ++appends_;
  {
    const WallTimer timer;
    const Status sync = MaybeSyncWalLocked(false);
    wal_us += timer.ElapsedMicros();
    if (trace != nullptr) trace->AddStage(obs::Stage::kWalSync, wal_us);
    if (durable_) StageHistogram(obs::Stage::kWalSync)->Record(wal_us);
    GSGROW_RETURN_NOT_OK(sync);
  }
  return seq;
}

Status MiningService::AppendTo(SeqId seq,
                               const std::vector<std::string>& names,
                               obs::RequestTrace* trace) {
  MutexLock lock(&mutex_);
  if (seq >= index_.num_sequences()) {
    return Status::NotFound("unknown sequence id " + std::to_string(seq));
  }
  GSGROW_RETURN_NOT_OK(CheckEventNames(names));
  GSGROW_RETURN_NOT_OK(
      CheckPositionSpace(index_.SequenceLength(seq), names.size()));
  std::vector<EventId> ids;
  std::vector<std::pair<EventId, const std::string*>> fresh;
  ResolveIdsLocked(names, &ids, &fresh);
  uint64_t wal_us = 0;
  {
    const WallTimer timer;
    GSGROW_RETURN_NOT_OK(
        LogMutationLocked(fresh, serve::LogRecordType::kAppendTo, seq, ids));
    wal_us += timer.ElapsedMicros();
  }
  for (const auto& [id, name] : fresh) {
    const EventId interned = MutableDictionaryLocked().Intern(*name);
    // invariant: same dense-id prediction as Append (one lock, one path).
    GSGROW_CHECK(interned == id);
  }
  index_.AppendToSequence(seq, ids);
  snapshot_cache_.reset();
  ++appends_;
  const WallTimer timer;
  const Status sync = MaybeSyncWalLocked(false);
  wal_us += timer.ElapsedMicros();
  if (trace != nullptr) trace->AddStage(obs::Stage::kWalSync, wal_us);
  if (durable_) StageHistogram(obs::Stage::kWalSync)->Record(wal_us);
  return sync;
}

Result<SeqId> MiningService::AppendIds(std::span<const EventId> events) {
  MutexLock lock(&mutex_);
  GSGROW_RETURN_NOT_OK(CheckEventIds(events));
  GSGROW_RETURN_NOT_OK(CheckPositionSpace(0, events.size()));
  if (index_.num_sequences() >= static_cast<size_t>(kNoPosition)) {
    return Status::OutOfRange("sequence id space exhausted");
  }
  const SeqId seq = static_cast<SeqId>(index_.num_sequences());
  GSGROW_RETURN_NOT_OK(
      LogMutationLocked({}, serve::LogRecordType::kAddSequence, seq, events));
  const SeqId index_seq = index_.AddSequence(events);
  // invariant: the id was read from the index under this same lock.
  GSGROW_CHECK(seq == index_seq);
  snapshot_cache_.reset();
  ++appends_;
  GSGROW_RETURN_NOT_OK(MaybeSyncWalLocked(false));
  return seq;
}

Status MiningService::AppendIdsTo(SeqId seq, std::span<const EventId> events) {
  MutexLock lock(&mutex_);
  if (seq >= index_.num_sequences()) {
    return Status::NotFound("unknown sequence id " + std::to_string(seq));
  }
  GSGROW_RETURN_NOT_OK(CheckEventIds(events));
  GSGROW_RETURN_NOT_OK(
      CheckPositionSpace(index_.SequenceLength(seq), events.size()));
  GSGROW_RETURN_NOT_OK(
      LogMutationLocked({}, serve::LogRecordType::kAppendTo, seq, events));
  index_.AppendToSequence(seq, events);
  snapshot_cache_.reset();
  ++appends_;
  return MaybeSyncWalLocked(false);
}

Status MiningService::Ingest(const SequenceDatabase& db) {
  MutexLock lock(&mutex_);
  if (index_.num_sequences() != 0 || names_->dictionary().size() != 0) {
    return Status::InvalidArgument(
        "Ingest requires an empty service (ids are preserved)");
  }
  const Result<EventId> alphabet_size = CheckCorpus(db);
  if (!alphabet_size.ok()) return alphabet_size.status();
  if (durable_) GSGROW_RETURN_NOT_OK(LogIngestLocked(db));
  MutableDictionaryLocked() = db.dictionary();
  index_.AddCorpus(db.sequences(), *alphabet_size);
  snapshot_cache_.reset();
  appends_ += db.size();
  return MaybeSyncWalLocked(/*force=*/true);
}

Status MiningService::LogIngestLocked(const SequenceDatabase& db) {
  // A bulk load is one logical commit: an intern record per name, then a
  // sequence record per sequence, each byte-identical to the record written
  // alone. They are framed into one buffer, written whenever it reaches
  // kChunkBytes; the caller forces a sync after.
  constexpr size_t kChunkBytes = size_t{1} << 20;
  const EventDictionary& dictionary = db.dictionary();
  const size_t total = dictionary.size() + db.size();
  std::string chunk;
  uint64_t records = 0;
  for (size_t r = 0; r < total; ++r) {
    serve::LogRecordType type = serve::LogRecordType::kIntern;
    if (r < dictionary.size()) {
      const EventId id = static_cast<EventId>(r);
      serve::EncodeInternRecord(id, dictionary.Name(id), &scratch_payload_);
    } else {
      const SeqId seq = static_cast<SeqId>(r - dictionary.size());
      type = serve::LogRecordType::kAddSequence;
      serve::EncodeSequenceRecord(seq, {}, db[seq].events(),
                                  &scratch_payload_);
    }
    persist::FrameWalRecord(static_cast<uint8_t>(type), scratch_payload_,
                            &chunk);
    ++records;
    if (chunk.size() >= kChunkBytes || r + 1 == total) {
      GSGROW_RETURN_NOT_OK(WriteWalLocked(chunk, records));
      chunk.clear();
      records = 0;
    }
  }
  return Status::OK();
}

std::shared_ptr<const ServiceSnapshot> MiningService::Snapshot() {
  MutexLock lock(&mutex_);
  return SnapshotLocked();
}

EventDictionary& MiningService::MutableDictionaryLocked() {
  if (names_published_) {
    names_ = std::make_shared<SnapshotNames>(names_->dictionary());
    names_published_ = false;
  }
  return names_->mutable_dictionary();
}

std::shared_ptr<const ServiceSnapshot> MiningService::SnapshotLocked() {
  if (snapshot_cache_ == nullptr) {
    if (durable_ && index_.pending_epoch_advance() && wal_status_.ok()) {
      // Log the epoch trajectory: replay reproduces the pre-crash counter
      // by re-running Snapshot() at exactly these points. Failure to log is
      // reported on the NEXT mutation (sticky wal_status_) — the snapshot
      // itself must stay infallible for readers.
      serve::EncodeEpochRecord(index_.epoch() + 1, &scratch_payload_);
      Status status = LogWalRecordLocked(serve::LogRecordType::kEpochAdvance,
                                         scratch_payload_);
      if (status.ok()) status = MaybeSyncWalLocked(false);
      if (!status.ok()) {
        std::fprintf(stderr,
                     "[gsgrow] warning: wal epoch record failed (%s); "
                     "service is now read-only\n",
                     status.ToString().c_str());
      }
    }
    // The snapshot shares the writer's names; the next intern copies them.
    names_published_ = true;
    EpochDelta delta;
    snapshot_cache_ = std::make_shared<const ServiceSnapshot>(
        ServiceSnapshot{index_.Snapshot(cache_ != nullptr ? &delta : nullptr),
                        names_, index_.epoch()});
    // Every epoch advance the running service takes goes through here, so
    // the cache's delta history is the complete epoch trajectory (the
    // direct index_.Snapshot() calls in ReplayRecord predate any cache
    // entry and are excluded on purpose — OnEpochAdvance resets history on
    // the resulting gap). Lock order: mutex_ → cache mutex.
    if (cache_ != nullptr && delta.advanced) {
      cache_->OnEpochAdvance(std::move(delta));
    }
  }
  return snapshot_cache_;
}

MineResponse MiningService::Execute(const MineRequest& request) {
  std::shared_ptr<const ServiceSnapshot> snapshot;
  return Execute(request, &snapshot);
}

MineResponse MiningService::Execute(
    const MineRequest& request,
    std::shared_ptr<const ServiceSnapshot>* snapshot_out,
    obs::RequestTrace* trace) {
  if (trace == nullptr) {
    // No caller-owned trace: the service traces and records the request
    // itself, so every query lands in the ring exactly once.
    obs::RequestTrace local;
    const WallTimer total;
    MineResponse response = Execute(request, snapshot_out, &local);
    local.total_us = total.ElapsedMicros();
    RecordRequestTrace(std::move(local));
    return response;
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (trace->verb.empty()) trace->verb = MinerLabel(request.miner);
  {
    obs::StageTimer timer(trace, obs::Stage::kSnapshot,
                          StageHistogram(obs::Stage::kSnapshot));
    *snapshot_out = Snapshot();
  }
  MineResponse response = ExecuteCached(**snapshot_out, request, trace);
  trace->epoch = response.epoch;
  trace->patterns = response.patterns.size();
  trace->ok = response.status.ok();
  trace->dfs = ExtractDfsCounters(response.stats);
  return response;
}

void MiningService::RecordRequestTrace(obs::RequestTrace trace) {
  Metrics().requests->Increment();
  Metrics().request_us->Record(trace.total_us);
  traces_.Record(std::move(trace));
}

MineResponse MiningService::ExecuteCached(const ServiceSnapshot& snapshot,
                                          const MineRequest& request,
                                          obs::RequestTrace* trace) {
  if (cache_ == nullptr || !CacheableRequest(request)) {
    return ExecuteMineStage(snapshot, request, trace);
  }
  MineRequest canonical;
  ResultCacheKey key = [&] {
    obs::StageTimer timer(trace, obs::Stage::kCanonicalize,
                          StageHistogram(obs::Stage::kCanonicalize));
    return CanonicalRequestKey(request, &canonical);
  }();
  obs::StageTimer probe_timer(trace, obs::Stage::kCacheProbe,
                              StageHistogram(obs::Stage::kCacheProbe));
  CacheLookup lookup = cache_->Lookup(key, canonical, snapshot);
  probe_timer.Stop();
  if (lookup.hit) {
    if (trace != nullptr) trace->cache_hit = true;
    return std::move(lookup.response);
  }
  // Miss: mine outside every lock. The original request executes (its
  // thread count is an execution hint the canonical form strips), with the
  // answer-invariant warm-start floor from a dirty entry when one existed.
  MineRequest warmed = request;
  warmed.options.support_floor_hint = lookup.warm_support_floor;
  MineResponse response = ExecuteMineStage(snapshot, warmed, trace);
  if (CacheableResponse(response)) {
    // The insert rides in the cache-probe span: both halves are the
    // cache's bookkeeping cost around the mine.
    obs::StageTimer insert_timer(trace, obs::Stage::kCacheProbe, nullptr);
    cache_->Insert(key, canonical, response, snapshot);
  }
  return response;
}

MineResponse MiningService::ExecuteMineStage(const ServiceSnapshot& snapshot,
                                             const MineRequest& request,
                                             obs::RequestTrace* trace) {
  obs::StageTimer timer(trace, obs::Stage::kMine,
                        StageHistogram(obs::Stage::kMine));
  return ExecuteOn(snapshot, request);
}

MineResponse MiningService::ExecuteOn(const ServiceSnapshot& snapshot,
                                      const MineRequest& request) {
  MineResponse response;
  response.epoch = snapshot.epoch;
  if (request.miner != MineRequest::Miner::kTopK &&
      request.options.min_support < 1) {
    response.status = Status::InvalidArgument("min_support must be >= 1");
    return response;
  }
  // A zero length cap admits no pattern at all; the engine would still
  // answer its single-event roots.
  if (request.options.max_pattern_length < 1) {
    response.status =
        Status::InvalidArgument("max_pattern_length must be >= 1");
    return response;
  }
  if (request.miner == MineRequest::Miner::kTopK && request.options.k < 1) {
    response.status = Status::InvalidArgument("k must be >= 1");
    return response;
  }
  // An inverted range admits no gap at all, so it would silently answer
  // with single events only.
  if (request.miner == MineRequest::Miner::kGapConstrained &&
      request.gap.min_gap > request.gap.max_gap) {
    response.status = Status::InvalidArgument("min_gap must be <= max_gap");
    return response;
  }

  MinerOptions options = request.options;
  if (!ResolveRequestAlphabet(request, snapshot.db->dictionary(),
                              &options.restrict_alphabet)) {
    // A name filter that resolves to nothing matches no pattern; answer
    // empty rather than silently mining the whole alphabet.
    return response;
  }

  switch (request.miner) {
    case MineRequest::Miner::kAll: {
      MiningResult result = MineAllFrequent(snapshot.index, options);
      response.patterns = std::move(result.patterns);
      response.stats = std::move(result.stats);
      break;
    }
    case MineRequest::Miner::kClosed: {
      MiningResult result = MineClosedFrequent(snapshot.index, options);
      response.patterns = std::move(result.patterns);
      response.stats = std::move(result.stats);
      break;
    }
    case MineRequest::Miner::kTopK: {
      MiningResult result = MineTopKClosed(snapshot.index, options);
      response.patterns = std::move(result.patterns);
      response.stats = std::move(result.stats);
      break;
    }
    case MineRequest::Miner::kGapConstrained: {
      MiningResult result = MineAllFrequentGapConstrained(
          snapshot.index, options, request.gap);
      response.patterns = std::move(result.patterns);
      response.stats = std::move(result.stats);
      break;
    }
  }
  return response;
}

std::vector<MineResponse> MiningService::ExecuteBatch(
    std::span<const MineRequest> requests, size_t num_threads,
    std::shared_ptr<const ServiceSnapshot>* snapshot_out) {
  queries_.fetch_add(requests.size(), std::memory_order_relaxed);
  const std::shared_ptr<const ServiceSnapshot> snapshot = Snapshot();
  if (snapshot_out != nullptr) *snapshot_out = snapshot;
  std::vector<MineResponse> responses(requests.size());
  const size_t workers =
      std::min(ResolveNumThreads(num_threads), std::max<size_t>(
                                                   requests.size(), 1));
  // Every batch request is traced like a direct Execute (verb from the
  // miner label): the batch envelope shares one snapshot, so per-request
  // traces carry no snapshot span.
  const auto run_one = [&](const MineRequest& request) {
    obs::RequestTrace trace;
    trace.verb = MinerLabel(request.miner);
    const WallTimer total;
    MineResponse response = ExecuteCached(*snapshot, request, &trace);
    trace.total_us = total.ElapsedMicros();
    trace.epoch = response.epoch;
    trace.patterns = response.patterns.size();
    trace.ok = response.status.ok();
    trace.dfs = ExtractDfsCounters(response.stats);
    RecordRequestTrace(std::move(trace));
    return response;
  };
  if (workers <= 1) {
    for (size_t i = 0; i < requests.size(); ++i) {
      responses[i] = run_one(requests[i]);
    }
    return responses;
  }
  // Request-level parallelism over the shared snapshot: workers claim the
  // next unexecuted request (PR-3 dispenser idiom). Each request is forced
  // single-threaded so the pool, not the per-request option, owns the
  // hardware — responses are a pure function of (snapshot, request), so the
  // batch output is identical at any worker count. The cached path keeps
  // that purity: a hit returns the identical bytes a cold mine would, and
  // racing misses on one key insert-if-absent (thread count is stripped
  // from the canonical key, so both thread policies share entries). The
  // caller is one of the workers, and a helper the host cannot spawn ends
  // the spawning: the workers that run drain the dispenser either way.
  std::atomic<size_t> next{0};
  const auto drain = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < requests.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      MineRequest request = requests[i];
      request.options.num_threads = 1;
      responses[i] = run_one(request);
    }
  };
  std::vector<std::thread> helpers;
  for (size_t w = 1; w < workers; ++w) {
    try {
      helpers.emplace_back(drain);
    } catch (const std::system_error&) {
      break;
    }
  }
  drain();
  for (std::thread& helper : helpers) helper.join();
  return responses;
}

ServiceStats MiningService::Stats() {
  MutexLock lock(&mutex_);
  ServiceStats stats;
  stats.num_sequences = index_.num_sequences();
  stats.alphabet_size = index_.alphabet_size();
  stats.total_events = index_.total_events();
  stats.epoch = index_.epoch();
  stats.index_live_bytes = index_.live_bytes();
  stats.index_reserved_bytes = index_.reserved_bytes();
  stats.appends = appends_;
  stats.queries = queries_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) {
    const ResultCacheCounters counters = cache_->Counters();
    stats.cache_hits = counters.hits;
    stats.cache_misses = counters.misses;
    stats.cache_revalidated = counters.revalidated;
    stats.cache_evicted = counters.evicted;
  }
  if (durable_) {
    stats.wal_segments = wal_segment_ - wal_first_live_segment_ + 1;
    stats.wal_live_bytes = wal_bytes_before_active_ + wal_.offset();
    stats.checkpoints = checkpoints_;
    stats.wal_replay_records = recovery_.wal_replay_records;
    stats.recover_seconds = recovery_.recover_seconds;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Recovery.

Status MiningService::ReplayFreshNames(const serve::LogRecord& record) {
  for (const auto& [id, name] : record.fresh) {
    if (id != names_->dictionary().size()) {
      return Status::Corruption("wal replay: fresh name out of id order");
    }
    const EventId got = MutableDictionaryLocked().Intern(name);
    if (got != id) {
      return Status::Corruption("wal replay: fresh name '" + name +
                                "' already interned");
    }
  }
  return Status::OK();
}

Status MiningService::ReplayRecord(const serve::LogRecord& record) {
  const auto corrupt = [](const std::string& what) {
    return Status::Corruption("wal replay: " + what);
  };
  switch (record.type) {
    case serve::LogRecordType::kIntern: {
      if (record.event_id != names_->dictionary().size()) {
        return corrupt("intern record out of id order");
      }
      const EventId got = MutableDictionaryLocked().Intern(record.name);
      if (got != record.event_id) {
        return corrupt("intern record re-defines name '" + record.name + "'");
      }
      return Status::OK();
    }
    case serve::LogRecordType::kAddSequence: {
      if (record.seq != index_.num_sequences()) {
        return corrupt("sequence record out of id order");
      }
      GSGROW_RETURN_NOT_OK(ReplayFreshNames(record));
      GSGROW_RETURN_NOT_OK(CheckEventIds(record.events));
      GSGROW_RETURN_NOT_OK(CheckPositionSpace(0, record.events.size()));
      const SeqId index_seq = index_.AddSequence(record.events);
      // invariant: record.seq == index_.num_sequences() was checked above
      // with a kCorruption return — hostile log bytes cannot reach this.
      GSGROW_CHECK(index_seq == record.seq);
      ++appends_;
      return Status::OK();
    }
    case serve::LogRecordType::kAppendTo: {
      if (record.seq >= index_.num_sequences()) {
        return corrupt("append record names an unknown sequence");
      }
      GSGROW_RETURN_NOT_OK(ReplayFreshNames(record));
      GSGROW_RETURN_NOT_OK(CheckEventIds(record.events));
      GSGROW_RETURN_NOT_OK(CheckPositionSpace(
          index_.SequenceLength(record.seq), record.events.size()));
      index_.AppendToSequence(record.seq, record.events);
      ++appends_;
      return Status::OK();
    }
    case serve::LogRecordType::kEpochAdvance: {
      // Re-run the snapshot the record witnessed; the counter must land on
      // exactly the logged epoch or the trajectory diverged.
      index_.Snapshot();
      if (index_.epoch() != record.epoch) {
        return corrupt("epoch trajectory mismatch (replayed " +
                       std::to_string(index_.epoch()) + ", logged " +
                       std::to_string(record.epoch) + ")");
      }
      return Status::OK();
    }
  }
  return corrupt("unknown record type");
}

Result<std::unique_ptr<MiningService>> MiningService::OpenDurable(
    const DurabilityOptions& options, const IndexBuildOptions& index_options,
    const ResultCacheOptions& cache_options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("DurabilityOptions.dir must be set");
  }
  if (options.sync == DurabilityOptions::SyncMode::kGroupCommit &&
      options.group_commit_appends == 0) {
    return Status::InvalidArgument("group_commit_appends must be >= 1");
  }
  GSGROW_RETURN_NOT_OK(persist::CreateDirIfMissing(options.dir));

  WallTimer timer;
  auto service = std::make_unique<MiningService>(index_options, cache_options);
  // The service is single-owner until this function returns, but the
  // recovery body writes guarded fields (names_, index_, wal_) — hold
  // the lock
  // so the thread-safety analysis can prove every access, here and in the
  // Replay* helpers.
  MutexLock lock(&service->mutex_);
  service->durable_ = true;
  service->dopts_ = options;
  RecoveryInfo& info = service->recovery_;

  // 1. Checkpoint, if one has been published.
  uint64_t start_segment = 0;
  if (persist::PathExists(serve::CheckpointPath(options.dir))) {
    Result<serve::CheckpointState> ckpt =
        serve::ReadServeCheckpoint(options.dir);
    if (!ckpt.ok()) return ckpt.status();
    for (size_t id = 0; id < ckpt->names.size(); ++id) {
      const EventId got =
          service->MutableDictionaryLocked().Intern(ckpt->names[id]);
      if (got != id) {
        return Status::Corruption("serve checkpoint: duplicate name '" +
                                  ckpt->names[id] + "'");
      }
    }
    for (const std::vector<EventId>& events : ckpt->sequences) {
      GSGROW_RETURN_NOT_OK(CheckEventIds(events));
      GSGROW_RETURN_NOT_OK(CheckPositionSpace(0, events.size()));
      service->index_.AddSequence(events);
    }
    service->index_.RestoreEpoch(ckpt->epoch);
    service->appends_ = ckpt->sequences.size();
    start_segment = ckpt->wal_segment;
    info.recovered_checkpoint = true;
    info.checkpoint_epoch = ckpt->epoch;
    info.checkpoint_sequences = ckpt->sequences.size();
  }

  // 2. The log tail: every segment >= the checkpoint's coverage point, in
  // order, with no gaps. Segments below it are leftovers of a checkpoint
  // whose cleanup was interrupted — deleted now, never replayed.
  Result<std::vector<uint64_t>> segments =
      serve::ListWalSegments(options.dir);
  if (!segments.ok()) return segments.status();
  std::vector<uint64_t> replay;
  for (const uint64_t s : *segments) {
    if (s < start_segment) {
      GSGROW_RETURN_NOT_OK(persist::RemoveFileIfExists(
          serve::WalSegmentPath(options.dir, s)));
    } else {
      replay.push_back(s);
    }
  }
  for (size_t i = 0; i < replay.size(); ++i) {
    if (replay[i] != start_segment + i) {
      return Status::Corruption(
          "missing wal segment " + std::to_string(start_segment + i) +
          " (found " + std::to_string(replay[i]) + ")");
    }
  }

  uint64_t active_segment = start_segment;
  for (size_t i = 0; i < replay.size(); ++i) {
    const bool last = i + 1 == replay.size();
    const std::string path = serve::WalSegmentPath(options.dir, replay[i]);
    // Only the final segment may end in a torn record; earlier ones were
    // fully synced before their checkpoint rotation retired them.
    Result<persist::WalReadResult> read =
        persist::ReadWalFile(path, /*tolerate_torn_tail=*/last);
    if (!read.ok()) return read.status();
    // Live-bytes accounting: retained segments before the active one
    // contribute their valid bytes; the active segment's size is the
    // writer's offset (ServiceStats::wal_live_bytes).
    if (!last) service->wal_bytes_before_active_ += read->valid_bytes;
    for (const persist::WalRecord& raw : read->records) {
      Result<serve::LogRecord> decoded = serve::DecodeLogRecord(raw);
      if (!decoded.ok()) return decoded.status();
      GSGROW_RETURN_NOT_OK(service->ReplayRecord(*decoded));
      ++info.wal_replay_records;
    }
    if (read->torn_tail) {
      info.torn_tail_dropped = true;
      // Cut the torn bytes so the reopened writer appends after the last
      // intact record instead of concatenating onto garbage.
      GSGROW_RETURN_NOT_OK(persist::TruncateFile(path, read->valid_bytes));
    }
    active_segment = replay[i];
  }

  // 3. Resume logging at the end of the last (possibly brand-new) segment.
  Result<persist::WalWriter> wal =
      persist::WalWriter::Open(serve::WalSegmentPath(options.dir,
                                                     active_segment));
  if (!wal.ok()) return wal.status();
  service->wal_ = std::move(*wal);
  service->wal_segment_ = active_segment;
  service->wal_first_live_segment_ = start_segment;
  GSGROW_RETURN_NOT_OK(persist::SyncDir(options.dir));

  info.recovered_sequences = service->index_.num_sequences();
  info.recovered_epoch = service->index_.epoch();
  info.recover_seconds = timer.ElapsedSeconds();
  // Invalidation-on-recover contract (DESIGN.md §12): the replayed corpus
  // gets a cache with no entries and no delta history, so a result mined
  // pre-crash — possibly against WAL-tail data a torn record dropped — can
  // never satisfy a post-recover lookup. The cache above is freshly
  // constructed and structurally empty; the explicit Clear() makes the
  // contract hold even if a future refactor warms it during replay.
  if (service->cache_ != nullptr) service->cache_->Clear();
  return service;
}

Status MiningService::Checkpoint() {
  MutexLock lock(&mutex_);
  if (!durable_) {
    return Status::InvalidArgument("checkpoint on a non-durable service");
  }
  if (!wal_status_.ok()) return wal_status_;
  const WallTimer checkpoint_timer;
  // Settle the epoch (and its trajectory record) so the spilled counter is
  // the one a reader of this corpus observes.
  SnapshotLocked();
  if (!wal_status_.ok()) return wal_status_;
  GSGROW_RETURN_NOT_OK(SyncWalLocked());

  // Rotate FIRST: the new segment must exist before the checkpoint names it
  // as the first uncovered one. A crash anywhere in this window recovers
  // from the OLD checkpoint over the still-contiguous segment run.
  const uint64_t next_segment = wal_segment_ + 1;
  Result<persist::WalWriter> fresh =
      persist::WalWriter::Open(serve::WalSegmentPath(dopts_.dir,
                                                     next_segment));
  if (!fresh.ok()) return fresh.status();
  GSGROW_RETURN_NOT_OK(persist::SyncDir(dopts_.dir));
  GSGROW_IGNORE_STATUS(
      wal_.Close(),
      "the retiring segment was fully synced above and the checkpoint about "
      "to land supersedes it; a close failure cannot lose data");
  wal_ = std::move(*fresh);
  wal_segment_ = next_segment;
  wal_first_live_segment_ = next_segment;
  wal_bytes_before_active_ = 0;
  unsynced_appends_ = 0;

  GSGROW_RETURN_NOT_OK(serve::WriteServeCheckpoint(
      dopts_.dir, names_->dictionary(), index_, index_.epoch(),
      next_segment));

  // The covered prefix is garbage now; deletion failures are retried by the
  // next open (stale segments below the checkpoint are removed there too).
  Result<std::vector<uint64_t>> segments = serve::ListWalSegments(dopts_.dir);
  if (segments.ok()) {
    for (const uint64_t s : *segments) {
      if (s < next_segment) {
        GSGROW_IGNORE_STATUS(
            persist::RemoveFileIfExists(serve::WalSegmentPath(dopts_.dir, s)),
            "covered-prefix cleanup is best-effort: recovery ignores "
            "segments below the checkpoint and the next open retries the "
            "deletion");
      }
    }
    GSGROW_IGNORE_STATUS(persist::SyncDir(dopts_.dir),
                         "durability of the deletions is not required for "
                         "correctness — stale segments are inert");
  }
  ++checkpoints_;
  Metrics().checkpoints->Increment();
  Metrics().checkpoint_us->Record(checkpoint_timer.ElapsedMicros());
  return Status::OK();
}

}  // namespace gsgrow
