// Shared machinery for the figure/table benchmark harnesses.
//
// Every harness runs at a reduced default scale so the whole bench suite
// finishes in minutes; set GSGROW_BENCH_SCALE=1.0 for paper-scale corpora
// and GSGROW_BENCH_BUDGET (seconds per mining configuration) to raise the
// per-run cut-off. Configurations that exceed the budget are reported with
// a trailing '*' — these correspond to the paper's "cannot terminate /
// cut-off" axis breaks.

#ifndef GSGROW_BENCH_HARNESS_H_
#define GSGROW_BENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/inverted_index.h"
#include "core/miner_options.h"
#include "core/mining_result.h"

namespace gsgrow::bench {

/// Dataset scale factor from GSGROW_BENCH_SCALE (default 0.25). A value
/// that is not a number in [0.001, 4] exits the process with code 2.
double Scale();

/// Per-configuration time budget in seconds from GSGROW_BENCH_BUDGET
/// (default 5). A value that is not a number in [0.1, 36000] exits the
/// process with code 2.
double BudgetSeconds();

/// A paper support threshold scaled with the dataset (floor 1).
uint64_t ScaledMinSup(uint64_t paper_value, double scale);

/// Outcome of one mining run: the full MiningStats, so harnesses can
/// surface pruning effects (next queries, closure checks, regrow events)
/// instead of inferring them from wall-clock alone, plus the worker count
/// the run used (the JSON rows record a scaling curve) and the semantics
/// annotation selection active during the run ("" when none; the canonical
/// SemanticsSpecToString form, or a harness-chosen label such as
/// "posthoc:<spec>" for baseline arms). Accessors cover the three values
/// every table needs.
struct Cell {
  MiningStats stats;
  size_t threads = 1;
  std::string semantics;
  /// InvertedIndex::MemoryUsage() of the index the run executed against
  /// (0 when the harness did not record it) — makes the index footprint a
  /// recorded number in the JSON rows, not a claim.
  uint64_t index_bytes = 0;

  double seconds() const { return stats.elapsed_seconds; }
  uint64_t patterns() const { return stats.patterns_found; }
  bool truncated() const { return stats.truncated; }
};

/// Cell from a finished mining run.
Cell ToCell(const MiningResult& result, size_t threads = 1,
            std::string semantics = "");

/// Runs GSgrow (mining all) without materializing patterns. `label` names
/// the configuration in the JSON record (see AppendBenchJson);
/// `num_threads` shards the root loop (MinerOptions::num_threads).
Cell RunAll(const InvertedIndex& index, uint64_t min_sup, double budget,
            const std::string& label = "", size_t num_threads = 1);

/// Runs CloGSgrow (mining closed) without materializing patterns.
Cell RunClosed(const InvertedIndex& index, uint64_t min_sup, double budget,
               const std::string& label = "", size_t num_threads = 1);

/// "1.23 s" or "(>) 5.00 s*" when the run was cut off.
std::string CellTime(const Cell& cell);

/// "12,345" or ">=12,345*" when the run was cut off.
std::string CellCount(const Cell& cell);

/// One machine-readable JSON object for a bench result: seconds, patterns,
/// truncated, and every MiningStats counter, tagged with the given
/// bench/dataset/config labels.
std::string CellJson(const std::string& bench, const std::string& dataset,
                     const std::string& config, const Cell& cell);

/// Appends `json_object` as one line to the file named by the
/// GSGROW_BENCH_JSON environment variable (no-op when unset). This is how
/// ad-hoc bench runs leave a perf trajectory behind without changing their
/// human-readable output.
void AppendBenchJson(const std::string& json_object);

/// Writes `json_objects` as a JSON array to `path` (overwrites).
void WriteJsonArray(const std::string& path,
                    const std::vector<std::string>& json_objects);

/// Prints the standard harness preamble (title, paper expectation, scale).
void PrintPreamble(const std::string& title, const std::string& expectation);

}  // namespace gsgrow::bench

#endif  // GSGROW_BENCH_HARNESS_H_
