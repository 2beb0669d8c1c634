// Serve-protocol request parsing and response formatting (DESIGN.md §8).
//
// The serving front-end speaks a line-delimited text protocol over
// stdin/stdout — pipeable, diffable against golden transcripts, and simple
// enough for a later socket wrapper to frame verbatim. One command per
// line, whitespace-separated tokens, key=value arguments:
//
//   append <event>...                        new sequence from event names
//   extend <seq> <event>...                  append events to sequence <seq>
//   mine [algo=closed|all|gap] [min_sup=N] [max_len=N] [budget=SECONDS]
//        [threads=N] [semantics=SPEC] [events=a,b,c]
//        [min_gap=N] [max_gap=N] [limit=N]   run a mining query
//   topk [k=N] [min_len=N] [max_len=N] [budget=SECONDS] [threads=N]
//        [semantics=SPEC] [events=a,b,c] [limit=N]
//   batch                                    start collecting mine/topk
//   run [threads=N]                          execute the batch on ONE snapshot
//   stats                                    corpus counters
//   metrics                                  Prometheus-style exposition dump
//   trace last [n]                           recent request traces, newest first
//   checkpoint                               spill a durable checkpoint
//   recover                                  what OpenDurable found on disk
//   quit                                     end the session
//
// Blank lines and '#' comments are skipped. Responses are single lines
// ("ok ...", "stats ...", "error ...") except mine/topk results, whose
// "result patterns=N epoch=E" header is followed by N pattern lines in the
// exact pattern_io line shape — a saved response body IS a pattern file.
//
// Requests parse into the typed serve structs (MineRequest), so the CLI,
// tests, and benches drive the identical MiningService code path.
//
// This translation unit also owns request canonicalization
// (CanonicalizeMineRequest / CanonicalRequestKey, declared in
// serve/result_cache.h): the result cache's key form lives next to the
// wire parser so the two evolve together — every token the parser accepts
// has exactly one canonical rendering.

#ifndef GSGROW_IO_REQUEST_IO_H_
#define GSGROW_IO_REQUEST_IO_H_

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/event_dictionary.h"
#include "serve/mining_service.h"
#include "util/status.h"

namespace gsgrow {

/// One parsed protocol line.
struct ServeCommand {
  enum class Verb {
    kAppend,
    kExtend,
    kMine,
    kTopK,
    kBatch,
    kRun,
    kStats,
    kMetrics,
    kTrace,
    kCheckpoint,
    kRecover,
    kQuit,
  };

  Verb verb = Verb::kStats;

  /// append / extend payload (event names) and extend target.
  std::vector<std::string> events;
  SeqId seq = 0;

  /// mine / topk query.
  MineRequest request;

  /// Cap on the pattern lines a result prints (limit=N; default all).
  size_t limit = static_cast<size_t>(-1);

  /// run: worker count for the shared-snapshot batch.
  size_t run_threads = 1;

  /// trace: how many recent traces to print (trace last [n]; default 5).
  size_t trace_n = 5;
};

/// Parses one protocol line. The line must not be blank or a comment
/// (callers skip those). InvalidArgument names the offending token and the
/// accepted vocabulary.
Result<ServeCommand> ParseServeCommand(std::string_view line);

/// Formats a mine/topk response: the "result patterns=N epoch=E" header
/// (plus " truncated=<reason>" when the run was cut off) followed by up to
/// `limit` pattern lines, each newline-terminated. Failed requests format
/// as one "error <status>" line.
std::string FormatMineResponse(const MineResponse& response,
                               const EventDictionary& dictionary,
                               size_t limit);

/// Writes exactly FormatMineResponse's text to `out`, formatting the rows
/// straight from the response's table and handing the stream one bounded
/// chunk at a time, so a large answer is never held as text in whole.
void WriteMineResponse(const MineResponse& response,
                       const EventDictionary& dictionary, size_t limit,
                       std::ostream& out);

/// Formats the stats verb response (one line, no newline).
std::string FormatServiceStats(const ServiceStats& stats);

/// Formats the recover verb response (one line, no newline). Deliberately
/// excludes wall-clock timing so the line is golden-diffable.
std::string FormatRecoveryInfo(const RecoveryInfo& info);

}  // namespace gsgrow

#endif  // GSGROW_IO_REQUEST_IO_H_
