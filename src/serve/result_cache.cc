#include "serve/result_cache.h"

#include <algorithm>
#include <span>

#include "obs/metrics.h"
#include "util/timer.h"

namespace gsgrow {

namespace {

// Pre-registered metric handles (DESIGN.md §13): resolved once, so the
// per-lookup cost is an atomic add — no registry map lookups on the hot
// path.
struct CacheMetrics {
  obs::Histogram* lookup_hit_us;
  obs::Histogram* lookup_revalidated_us;
  obs::Histogram* lookup_miss_us;
  obs::Gauge* bytes;
  obs::Gauge* entries;
};

CacheMetrics MakeCacheMetrics() {
  CacheMetrics m;
  const char* lookup_help =
      "Result-cache lookup latency by outcome, microseconds";
  m.lookup_hit_us = GSGROW_METRIC_HISTOGRAM_LABELED(
      "gsgrow_cache_lookup_us", lookup_help, "outcome", "hit");
  m.lookup_revalidated_us = GSGROW_METRIC_HISTOGRAM_LABELED(
      "gsgrow_cache_lookup_us", lookup_help, "outcome", "revalidated");
  m.lookup_miss_us = GSGROW_METRIC_HISTOGRAM_LABELED(
      "gsgrow_cache_lookup_us", lookup_help, "outcome", "miss");
  m.bytes = GSGROW_METRIC_GAUGE("gsgrow_cache_bytes",
                                "Approximate bytes held by the result cache");
  m.entries = GSGROW_METRIC_GAUGE("gsgrow_cache_entries",
                                  "Entries held by the result cache");
  return m;
}

CacheMetrics& Metrics() {
  static CacheMetrics metrics = MakeCacheMetrics();
  return metrics;
}

// What one cached entry charges against the byte budget. The table's
// arrays are counted element by element: each event and annotation value
// at its size, and each row at kRowChargeBytes, which over-covers a row's
// own end and support (16 bytes). The charge is deterministic, so eviction
// order is reproducible across runs.
constexpr size_t kEntryChargeBytes = 256;  // entry + map-node overhead
constexpr size_t kRowChargeBytes = 56;

size_t EntryBytes(const std::string& key, const MineResponse& response,
                  const std::vector<EventId>& alphabet) {
  size_t bytes = kEntryChargeBytes;
  bytes += key.size() * 2;  // entry copy + map key copy
  bytes += response.stats.truncated_reason.size();
  bytes += alphabet.size() * sizeof(EventId);
  const PatternTable& table = response.patterns;
  bytes += table.size() * kRowChargeBytes;
  bytes += table.total_events() * sizeof(EventId);
  bytes += table.total_annotations() * sizeof(SemanticsValue);
  return bytes;
}

void SortDedup(std::vector<EventId>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

}  // namespace

ResultCache::ResultCache(const ResultCacheOptions& options)
    : options_(options) {}

bool ResultCache::RevalidateLocked(const Entry& entry,
                                   const MineRequest& request,
                                   const ServiceSnapshot& snapshot) const {
  // The retained deltas must cover (entry.epoch, snapshot.epoch]
  // contiguously; anything older than the window is unverifiable and
  // re-mines. (Epochs advance by exactly 1 per data-bearing snapshot, and
  // OnEpochAdvance resets the history on a gap, so front..back is a
  // contiguous range.)
  if (deltas_.empty() || deltas_.front().epoch > entry.epoch + 1 ||
      deltas_.back().epoch < snapshot.epoch) {
    return false;
  }

  // (a) The name filter must still resolve to the same event set: an
  // appended sequence can intern a name the filter was waiting for.
  std::vector<EventId> now;
  const bool resolve_ok =
      ResolveRequestAlphabet(request, snapshot.db->dictionary(), &now);
  if (entry.filter_matched_nothing) {
    // The cached answer is the empty response; it stays the answer exactly
    // as long as the filter keeps matching nothing.
    return !resolve_ok;
  }
  if (!resolve_ok) return false;
  SortDedup(&now);
  if (now != entry.alphabet) return false;
  // Unrestricted queries can be touched by ANY append; nothing to prove.
  if (entry.alphabet.empty()) return false;

  for (const EpochDelta& delta : deltas_) {
    if (delta.epoch <= entry.epoch) continue;
    if (delta.epoch > snapshot.epoch) break;
    // (b) No event that gained occurrences intersects the restriction:
    // gapped-subsequence occurrence counts depend only on the positions of
    // the pattern's own events, and appends never move existing positions.
    for (const EventId e : delta.events) {
      if (std::binary_search(entry.alphabet.begin(), entry.alphabet.end(),
                             e)) {
        return false;
      }
    }
    // (c) When the answer can also depend on host-sequence shape (window
    // annotations see sequence length; the gap-constrained flow oracle
    // reads whole per-sequence position lists), the appended-to sequences
    // must not host any restriction event. Both sides are sorted ascending
    // by sequence, so this is a linear merge per alphabet event.
    if (entry.needs_host_check && !delta.appended_seqs.empty()) {
      for (const EventId e : entry.alphabet) {
        auto appended = delta.appended_seqs.begin();
        for (const SeqId seq : snapshot.index.Postings(e)) {
          while (appended != delta.appended_seqs.end() && *appended < seq) {
            ++appended;
          }
          if (appended == delta.appended_seqs.end()) break;
          if (*appended == seq) return false;
        }
      }
    }
  }
  return true;
}

CacheLookup ResultCache::Lookup(const ResultCacheKey& key,
                                const MineRequest& request,
                                const ServiceSnapshot& snapshot) {
  CacheLookup out;
  const WallTimer timer;
  MutexLock lock(&mutex_);
  const auto it = map_.find(key.text());
  if (it == map_.end()) {
    ++misses_;
    Metrics().lookup_miss_us->Record(timer.ElapsedMicros());
    return out;
  }
  Entry& entry = *it->second;
  bool clean = false;
  bool crossed_epoch = false;
  if (entry.epoch == snapshot.epoch) {
    clean = true;
  } else if (entry.epoch < snapshot.epoch &&
             RevalidateLocked(entry, request, snapshot)) {
    // Clean across the advance: re-stamp, no mining. The response carries
    // the ORIGINAL run's stats — identical pattern bytes, original
    // counters — which is what the byte-identity gate compares.
    entry.epoch = snapshot.epoch;
    entry.response.epoch = snapshot.epoch;
    ++revalidated_;
    clean = true;
    crossed_epoch = true;
  }
  if (!clean) {
    // Dirty (or stamped with a FUTURE epoch by a racing batch worker):
    // miss, but seed the top-K descent with the cached k-th support. Any
    // starting threshold converges to the identical answer (core/topk.cc),
    // so the hint is a pure wall-clock optimization.
    ++misses_;
    const size_t k = request.options.k;
    if (request.miner == MineRequest::Miner::kTopK && k > 0 &&
        entry.response.patterns.size() >= k) {
      out.warm_support_floor = entry.response.patterns.support(k - 1);
    }
    Metrics().lookup_miss_us->Record(timer.ElapsedMicros());
    return out;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  out.hit = true;
  out.response = entry.response;
  (crossed_epoch ? Metrics().lookup_revalidated_us : Metrics().lookup_hit_us)
      ->Record(timer.ElapsedMicros());
  return out;
}

void ResultCache::Insert(const ResultCacheKey& key, const MineRequest& request,
                         const MineResponse& response,
                         const ServiceSnapshot& snapshot) {
  // Assemble the entry outside the lock; only the map/LRU splice below
  // needs serialization.
  Entry fresh;
  fresh.key = key.text();
  std::vector<EventId> resolved;
  if (ResolveRequestAlphabet(request, snapshot.db->dictionary(), &resolved)) {
    SortDedup(&resolved);
    fresh.alphabet = std::move(resolved);
  } else {
    fresh.filter_matched_nothing = true;
  }
  fresh.bytes = EntryBytes(fresh.key, response, fresh.alphabet);
  // An entry bigger than the whole budget would evict everything and then
  // be evicted itself on the next insert; never admit it (nor copy it).
  if (fresh.bytes > options_.max_bytes) return;
  fresh.response = response;
  fresh.epoch = response.epoch;
  fresh.needs_host_check =
      request.options.semantics.AnyEnabled() ||
      request.miner == MineRequest::Miner::kGapConstrained;

  MutexLock lock(&mutex_);
  const auto it = map_.find(fresh.key);
  if (it != map_.end()) {
    Entry& existing = *it->second;
    // Racing misses on one key: the response from the newest epoch wins;
    // an older (or equal-epoch duplicate) insert is a no-op.
    if (existing.epoch >= fresh.epoch) return;
    bytes_ -= existing.bytes;
    bytes_ += fresh.bytes;
    existing = std::move(fresh);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    bytes_ += fresh.bytes;
    lru_.push_front(std::move(fresh));
    map_.emplace(lru_.front().key, lru_.begin());
  }
  EvictToBudgetLocked();
  Metrics().bytes->Set(static_cast<int64_t>(bytes_));
  Metrics().entries->Set(static_cast<int64_t>(map_.size()));
}

void ResultCache::EvictToBudgetLocked() {
  // Never evict the front: it is the entry just inserted/touched, and the
  // oversized-entry refusal in Insert guarantees a single entry fits.
  while ((bytes_ > options_.max_bytes || map_.size() > options_.max_entries) &&
         lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    map_.erase(victim.key);
    lru_.pop_back();
    ++evicted_;
  }
}

void ResultCache::OnEpochAdvance(EpochDelta delta) {
  if (!delta.advanced) return;
  MutexLock lock(&mutex_);
  // Replay-time snapshots bypass this hook, so after a recovery the next
  // delta may not be contiguous with retained history. Reset rather than
  // bridge: entries older than the gap become unverifiable, which the
  // range check in RevalidateLocked already treats as dirty.
  if (!deltas_.empty() && deltas_.back().epoch + 1 != delta.epoch) {
    deltas_.clear();
  }
  deltas_.push_back(std::move(delta));
  while (deltas_.size() > options_.max_delta_history) deltas_.pop_front();
}

void ResultCache::Clear() {
  MutexLock lock(&mutex_);
  lru_.clear();
  map_.clear();
  deltas_.clear();
  bytes_ = 0;
  Metrics().bytes->Set(0);
  Metrics().entries->Set(0);
}

ResultCacheCounters ResultCache::Counters() const {
  MutexLock lock(&mutex_);
  ResultCacheCounters counters;
  counters.hits = hits_;
  counters.misses = misses_;
  counters.revalidated = revalidated_;
  counters.evicted = evicted_;
  counters.entries = map_.size();
  counters.bytes = bytes_;
  return counters;
}

}  // namespace gsgrow
