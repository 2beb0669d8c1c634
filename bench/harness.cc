#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/clogsgrow.h"
#include "core/gsgrow.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table.h"

namespace gsgrow::bench {

namespace {

// The value of environment variable `name` in [min, max], or `fallback`
// when it is unset; any other value ends the process with exit code 2, so a
// mistyped setting never measures a configuration nobody asked for.
double EnvOrExit(const char* name, double fallback, double min, double max) {
  double value = fallback;
  const Status status = EnvDouble(name, &value, min, max);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    std::exit(ExitCodeForStatus(status.code()));
  }
  return value;
}

}  // namespace

double Scale() { return EnvOrExit("GSGROW_BENCH_SCALE", 0.25, 1e-3, 4.0); }

double BudgetSeconds() {
  return EnvOrExit("GSGROW_BENCH_BUDGET", 5.0, 0.1, 36000.0);
}

uint64_t ScaledMinSup(uint64_t paper_value, double scale) {
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(static_cast<double>(paper_value) * scale)));
}

Cell ToCell(const MiningResult& result, size_t threads,
            std::string semantics) {
  return Cell{result.stats, threads, std::move(semantics)};
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Cell RunAll(const InvertedIndex& index, uint64_t min_sup, double budget,
            const std::string& label, size_t num_threads) {
  MinerOptions options;
  options.min_support = min_sup;
  options.time_budget_seconds = budget;
  options.collect_patterns = false;
  options.num_threads = num_threads;
  Cell cell = ToCell(MineAllFrequent(index, options), num_threads);
  cell.index_bytes = index.MemoryUsage();
  AppendBenchJson(CellJson("gsgrow", label,
                           "min_sup=" + std::to_string(min_sup), cell));
  return cell;
}

Cell RunClosed(const InvertedIndex& index, uint64_t min_sup, double budget,
               const std::string& label, size_t num_threads) {
  MinerOptions options;
  options.min_support = min_sup;
  options.time_budget_seconds = budget;
  options.collect_patterns = false;
  options.num_threads = num_threads;
  Cell cell = ToCell(MineClosedFrequent(index, options), num_threads);
  cell.index_bytes = index.MemoryUsage();
  AppendBenchJson(CellJson("clogsgrow", label,
                           "min_sup=" + std::to_string(min_sup), cell));
  return cell;
}

std::string CellJson(const std::string& bench, const std::string& dataset,
                     const std::string& config, const Cell& cell) {
  const MiningStats& s = cell.stats;
  std::ostringstream out;
  out << "{\"bench\":\"" << JsonEscape(bench) << "\""
      << ",\"dataset\":\"" << JsonEscape(dataset) << "\""
      << ",\"config\":\"" << JsonEscape(config) << "\""
      << ",\"threads\":" << cell.threads
      << ",\"semantics\":\"" << JsonEscape(cell.semantics) << "\""
      << ",\"index_bytes\":" << cell.index_bytes
      << ",\"seconds\":" << cell.seconds()
      << ",\"patterns\":" << cell.patterns()
      << ",\"truncated\":" << (cell.truncated() ? "true" : "false");
  // A cut-off row only shows how far the DFS got before the budget fired;
  // its counters move from run to run and are not comparable.
  if (cell.truncated()) {
    out << ",\"cutoff\":\"" << JsonEscape(s.truncated_reason)
        << ": counters not comparable across runs\"";
  }
  out << ",\"nodes_visited\":" << s.nodes_visited
      << ",\"insgrow_calls\":" << s.insgrow_calls
      << ",\"next_queries\":" << s.next_queries
      << ",\"closure_checks\":" << s.closure_checks
      << ",\"closure_regrow_events\":" << s.closure_regrow_events
      << ",\"lb_pruned_subtrees\":" << s.lb_pruned_subtrees
      << ",\"nonclosed_suppressed\":" << s.nonclosed_suppressed
      << ",\"max_depth\":" << s.max_depth << "}";
  return out.str();
}

void AppendBenchJson(const std::string& json_object) {
  const char* path = std::getenv("GSGROW_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::ofstream out(path, std::ios::app);
  if (out) out << json_object << "\n";
}

void WriteJsonArray(const std::string& path,
                    const std::vector<std::string>& json_objects) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << "[\n";
  for (size_t i = 0; i < json_objects.size(); ++i) {
    out << "  " << json_objects[i] << (i + 1 < json_objects.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

std::string CellTime(const Cell& cell) {
  std::string s = FormatSeconds(cell.seconds());
  if (cell.truncated()) s += "*";
  return s;
}

std::string CellCount(const Cell& cell) {
  std::string s = WithThousandsSeparators(cell.patterns());
  if (cell.truncated()) s = ">=" + s + "*";
  return s;
}

void PrintPreamble(const std::string& title, const std::string& expectation) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("paper: %s\n", expectation.c_str());
  std::printf(
      "scale=%.2f budget=%.1fs/config (env GSGROW_BENCH_SCALE / "
      "GSGROW_BENCH_BUDGET; '*' marks cut-off runs)\n\n",
      Scale(), BudgetSeconds());
}

}  // namespace gsgrow::bench
