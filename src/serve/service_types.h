// Request/response/snapshot value types of the serving layer (DESIGN.md §8).
//
// Split out of mining_service.h so layers that only speak ABOUT queries —
// the result cache (serve/result_cache.h), the protocol codec
// (io/request_io.h) — can name MineRequest/MineResponse without pulling in
// the service, its WAL plumbing, or each other. MiningService itself
// re-exports everything here by inclusion, so existing callers see one
// header as before.

#ifndef GSGROW_SERVE_SERVICE_TYPES_H_
#define GSGROW_SERVE_SERVICE_TYPES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/event_dictionary.h"
#include "core/inverted_index.h"
#include "core/miner_options.h"
#include "core/mining_result.h"
#include "core/reference.h"
#include "util/status.h"

namespace gsgrow {

/// One typed mining query.
struct MineRequest {
  enum class Miner {
    kAll,             // GSgrow: all frequent patterns
    kClosed,          // CloGSgrow: closed frequent patterns
    kTopK,            // top-K closed by support (no min_sup needed)
    kGapConstrained,  // exact gap-constrained mining
  };

  Miner miner = Miner::kClosed;

  /// min_support, budgets, threads, semantics selection, the top-K
  /// parameters (k, min_length; kTopK only), and (for programmatic callers)
  /// a pre-resolved restrict_alphabet. options.support_floor_hint is the
  /// result cache's internal top-K warm start (serve/result_cache.h):
  /// answer-invariant, so CanonicalizeMineRequest clears it and it is not a
  /// protocol field.
  MinerOptions options;

  /// Event-alphabet filter by NAME, resolved against the snapshot's
  /// dictionary at execution time. When non-empty it replaces
  /// options.restrict_alphabet; names unknown to the snapshot match
  /// nothing (a filter with no known names yields an empty response).
  std::vector<std::string> event_filter;

  /// Gap constraint (kGapConstrained only).
  LandmarkGapConstraint gap;
};

/// Outcome of one executed request.
struct MineResponse {
  /// InvalidArgument for malformed requests (min_support = 0,
  /// max_pattern_length = 0, k = 0);
  /// patterns/stats are empty then.
  Status status;
  PatternTable patterns;
  MiningStats stats;
  /// Epoch of the snapshot the query ran against. A cache hit re-stamps
  /// this to the served epoch; patterns stay byte-identical to a cold mine
  /// at that epoch (pinned by tests/serve/result_cache_test.cc).
  uint64_t epoch = 0;
};

/// The event names of one epoch: what a snapshot's name filters resolve
/// against and its responses are formatted with. It holds no sequences —
/// the snapshot's index is its only copy of the corpus. Snapshots hold it
/// const; only the service, before publishing it, interns into it.
class SnapshotNames {
 public:
  SnapshotNames() = default;
  explicit SnapshotNames(EventDictionary dictionary)
      : dictionary_(std::move(dictionary)) {}

  const EventDictionary& dictionary() const { return dictionary_; }
  EventDictionary& mutable_dictionary() { return dictionary_; }

 private:
  EventDictionary dictionary_;
};

/// One consistent, immutable view of the corpus: the index snapshot, the
/// epoch's names, and its epoch. Snapshots of epochs that interned no new
/// name share one `db`. Copyable and freely shareable across threads.
struct ServiceSnapshot {
  InvertedIndex index;
  /// The names (`db->dictionary()`); the field keeps its historical name.
  std::shared_ptr<const SnapshotNames> db;
  uint64_t epoch = 0;
};

/// Shape counters for the `stats` verb and monitoring.
struct ServiceStats {
  size_t num_sequences = 0;
  size_t alphabet_size = 0;
  uint64_t total_events = 0;
  uint64_t epoch = 0;
  uint64_t appends = 0;
  uint64_t queries = 0;

  /// Result-cache counters (serve/result_cache.h); all zero when the
  /// service runs with the cache disabled.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_revalidated = 0;
  uint64_t cache_evicted = 0;

  /// Durability observability (DESIGN.md §10/§13); all zero on an
  /// in-memory service. Counts and bytes are deterministic for a given
  /// session script, so they may enter golden transcripts; recover_seconds
  /// is wall-clock and deliberately kept OUT of FormatServiceStats.
  uint64_t wal_segments = 0;    // live wal-<seq>.log files (incl. active)
  uint64_t wal_live_bytes = 0;  // bytes across the live segments
  uint64_t checkpoints = 0;     // checkpoints taken by THIS incarnation
  uint64_t wal_replay_records = 0;  // last recovery's replayed records
  double recover_seconds = 0.0;     // last recovery's wall-clock cost

  /// Index memory from the writer's arena accounting
  /// (IncrementalInvertedIndex::live_bytes / reserved_bytes). Kept OUT of
  /// FormatServiceStats: red zones make them differ under ASan.
  uint64_t index_live_bytes = 0;
  uint64_t index_reserved_bytes = 0;
};

/// Resolves the request's effective alphabet restriction against `dictionary`:
/// the name-level event_filter when non-empty (sorted, deduplicated ids;
/// unknown names match nothing), otherwise a copy of
/// options.restrict_alphabet. Returns false when the filter is non-empty
/// but no name resolved — the service answers such a request with an empty
/// result instead of mining unrestricted, and the result cache keys its
/// clean/dirty classification off the same outcome (one definition, used
/// by both; defined in mining_service.cc).
bool ResolveRequestAlphabet(const MineRequest& request,
                            const EventDictionary& dictionary,
                            std::vector<EventId>* restrict_alphabet);

}  // namespace gsgrow

#endif  // GSGROW_SERVE_SERVICE_TYPES_H_
