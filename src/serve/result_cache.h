// Epoch-aware result cache for the serving layer (DESIGN.md §12).
//
// MiningService answers most production traffic with repeated queries:
// the same canonical MineRequest arrives again and again while appends
// advance the corpus epoch underneath. This cache keeps recently computed
// MineResponses keyed by the request's canonical text form, bounded by an
// LRU over a byte budget, and — the interesting part — survives epoch
// advances by DELTA REVALIDATION instead of a blind flush:
//
//  * Every epoch advance hands the cache the EpochDelta the index froze
//    (serve/incremental_index.h): which events gained occurrences, which
//    pre-existing sequences were appended to.
//  * On lookup, an entry stamped with an older epoch is CLEAN — re-stamped
//    to the current epoch with zero mining — iff (a) its name filter still
//    resolves to the same event set, (b) no delta event since its epoch
//    intersects its restriction alphabet, and (c) when the answer can
//    depend on host-sequence shape (any Table-I semantics selection, or
//    the gap-constrained miner's flow oracle), no appended-to sequence
//    hosts a restriction event. Occurrence counts of a pattern depend only
//    on the positions of the pattern's own events, and appends never move
//    existing positions — so (a)+(b)+(c) imply the cold answer at the new
//    epoch is the cached one. Unrestricted queries (empty alphabet) can be
//    touched by ANY append and are always dirty.
//  * A DIRTY entry is a miss, but not a useless one: for top-K requests
//    the cached k-th support seeds the threshold descent
//    (MinerOptions::support_floor_hint) — support is monotone non-
//    decreasing under append, and the descent converges to the identical
//    answer from any starting threshold, so the warm start only skips
//    empty descent steps.
//
// Correctness is gated, not argued: the randomized append/query
// differential in tests/serve/result_cache_test.cc pins cache-on responses
// byte-identical (FormatMineResponse) to a cache-off service at every
// step, and e2ebench's cache-off twin replays every serve_read /
// serve_write script line against a cache-off service and fails the run on
// any byte difference.
//
// Concurrency: the cache has its own annotated Mutex, held only for map /
// LRU bookkeeping — never while mining. Lock order is service mutex →
// cache mutex (OnEpochAdvance is called under the service lock); Lookup /
// Insert take only the cache mutex, so hits never contend with appends.
//
// Keying discipline: a ResultCacheKey can ONLY be produced by
// CanonicalRequestKey (io/request_io.cc) — the constructor is private, so
// serve-layer code cannot key an entry off a raw, un-canonicalized
// request. tools/check_invariants.py (cache-key-canonical) backstops the
// same rule textually.

#ifndef GSGROW_SERVE_RESULT_CACHE_H_
#define GSGROW_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/incremental_index.h"
#include "serve/service_types.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace gsgrow {

class ResultCacheKey;

/// The ONE ResultCacheKey factory: canonicalizes a copy of `request`
/// (CanonicalizeMineRequest) and renders the canonical text form. When
/// `canonical` is given, the canonical request is left there, so a caller
/// that needs both (the cache probe) canonicalizes once. Defined in
/// io/request_io.cc next to the protocol parser so the canonical form and
/// the wire form evolve together.
ResultCacheKey CanonicalRequestKey(const MineRequest& request,
                                   MineRequest* canonical = nullptr);

/// Strong key type: the canonical text form of a MineRequest. The private
/// constructor makes CanonicalRequestKey the single producer — equivalent
/// requests (permuted filters, elided defaults, thread-count differences)
/// collapse to one key at compile-time-enforced one place.
class ResultCacheKey {
 public:
  ResultCacheKey(const ResultCacheKey&) = default;
  ResultCacheKey(ResultCacheKey&&) = default;
  ResultCacheKey& operator=(const ResultCacheKey&) = default;
  ResultCacheKey& operator=(ResultCacheKey&&) = default;

  const std::string& text() const { return text_; }

 private:
  explicit ResultCacheKey(std::string text) : text_(std::move(text)) {}
  friend ResultCacheKey CanonicalRequestKey(const MineRequest& request,
                                            MineRequest* canonical);

  std::string text_;
};

/// Rewrites `request` into its canonical equivalent: event_filter /
/// restrict_alphabet sorted and deduplicated (a non-empty filter clears
/// the id restriction it replaces), parameters of disabled semantics
/// measures reset to their defaults, fields of inactive miners defaulted
/// (k / min_length off the top-K path, min_support on it, gap off the gap
/// path), and answer-invariant execution knobs (thread count, ablation
/// toggles, the warm-start hint) reset. Two requests with equal canonical
/// forms have byte-identical untruncated answers on every corpus. Defined
/// in io/request_io.cc.
void CanonicalizeMineRequest(MineRequest* request);

struct ResultCacheOptions {
  /// Byte budget over the cached responses (approximate deep size).
  /// 0 disables caching entirely (MiningService constructs no cache).
  size_t max_bytes = 64u << 20;
  /// Entry-count ceiling, independent of bytes.
  size_t max_entries = 4096;
  /// Epoch deltas retained for revalidation. An entry older than the
  /// retained window cannot be proven clean and re-mines; at one delta per
  /// data-bearing epoch advance this bounds history memory, not hit rate
  /// under any realistic append cadence.
  size_t max_delta_history = 64;
};

/// Monotonic counters (lifetime totals) plus current occupancy.
struct ResultCacheCounters {
  uint64_t hits = 0;         // served from cache (incl. clean re-stamps)
  uint64_t misses = 0;       // mined cold (incl. dirty re-mines)
  uint64_t revalidated = 0;  // clean re-stamps across an epoch advance
  uint64_t evicted = 0;      // LRU / byte-budget evictions
  size_t entries = 0;
  size_t bytes = 0;
};

/// Outcome of ResultCache::Lookup.
struct CacheLookup {
  bool hit = false;
  /// Valid when hit: the cached response, epoch-stamped to the snapshot.
  MineResponse response;
  /// On a dirty top-K miss: the cached k-th support, to seed
  /// MinerOptions::support_floor_hint. 0 when no warm start applies.
  uint64_t warm_support_floor = 0;
};

class ResultCache {
 public:
  explicit ResultCache(const ResultCacheOptions& options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Looks `key` up against `snapshot`. An entry at the snapshot's epoch
  /// is a plain hit; an older entry is revalidated against the retained
  /// epoch deltas (clean → re-stamped hit, dirty → miss with warm-start
  /// hint). `request` must be the canonicalized request the key was built
  /// from — it drives filter re-resolution and the host-shape test.
  CacheLookup Lookup(const ResultCacheKey& key, const MineRequest& request,
                     const ServiceSnapshot& snapshot) GSGROW_EXCLUDES(mutex_);

  /// Inserts (or refreshes) the response mined for `key` at
  /// `snapshot.epoch`. Insert-if-absent across racing misses: when an
  /// entry for the key already exists at the same or a newer epoch, the
  /// existing entry wins and this call is a no-op — concurrent
  /// ExecuteBatch workers mining the same key converge on one entry.
  void Insert(const ResultCacheKey& key, const MineRequest& request,
              const MineResponse& response, const ServiceSnapshot& snapshot)
      GSGROW_EXCLUDES(mutex_);

  /// Feeds one epoch advance into the revalidation history. Called by
  /// MiningService under the service mutex (lock order: service → cache).
  /// Deltas with advanced == false are dropped.
  void OnEpochAdvance(EpochDelta delta) GSGROW_EXCLUDES(mutex_);

  /// Drops every entry and the delta history (counters survive). The
  /// recover path calls this so no pre-recovery answer can ever be served
  /// against a replayed corpus (DESIGN.md §12 invalidation contract).
  void Clear() GSGROW_EXCLUDES(mutex_);

  ResultCacheCounters Counters() const GSGROW_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::string key;
    MineResponse response;  // response.epoch is kept equal to `epoch`
    uint64_t epoch = 0;
    // Resolved restriction alphabet at insert time (sorted, deduplicated);
    // empty + !filter_matched_nothing means unrestricted (always dirty).
    std::vector<EventId> alphabet;
    // The name filter resolved to nothing — the cached answer is the empty
    // response, clean for as long as the filter keeps matching nothing.
    bool filter_matched_nothing = false;
    // The answer can depend on host-sequence shape beyond the alphabet's
    // own positions (semantics annotations / gap-constrained flow oracle):
    // revalidation must also prove no appended-to sequence hosts an
    // alphabet event.
    bool needs_host_check = false;
    size_t bytes = 0;
  };
  using Lru = std::list<Entry>;

  // True when `entry` (stamped below snapshot.epoch) provably answers the
  // same at snapshot.epoch, per the retained deltas.
  bool RevalidateLocked(const Entry& entry, const MineRequest& request,
                        const ServiceSnapshot& snapshot) const
      GSGROW_REQUIRES(mutex_);
  void EvictToBudgetLocked() GSGROW_REQUIRES(mutex_);

  const ResultCacheOptions options_;

  mutable Mutex mutex_;  // bookkeeping only; never held while mining
  Lru lru_ GSGROW_GUARDED_BY(mutex_);  // front = most recently used
  std::unordered_map<std::string, Lru::iterator> map_
      GSGROW_GUARDED_BY(mutex_);
  // Epoch deltas ascending by epoch; epochs advance by exactly 1 per
  // data-bearing snapshot, so the deque covers a contiguous range.
  std::deque<EpochDelta> deltas_ GSGROW_GUARDED_BY(mutex_);
  size_t bytes_ GSGROW_GUARDED_BY(mutex_) = 0;
  uint64_t hits_ GSGROW_GUARDED_BY(mutex_) = 0;
  uint64_t misses_ GSGROW_GUARDED_BY(mutex_) = 0;
  uint64_t revalidated_ GSGROW_GUARDED_BY(mutex_) = 0;
  uint64_t evicted_ GSGROW_GUARDED_BY(mutex_) = 0;
};

}  // namespace gsgrow

#endif  // GSGROW_SERVE_RESULT_CACHE_H_
