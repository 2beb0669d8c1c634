#include "io/request_io.h"

#include <algorithm>
#include <limits>
#include <ostream>

#include "core/semantics_sink.h"
#include "io/pattern_io.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace gsgrow {

namespace {

template <typename T>
void SortDedup(std::vector<T>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

Status BadArg(std::string_view verb, const std::string& token,
              std::string_view expected) {
  return Status::InvalidArgument(std::string(verb) + ": bad argument '" +
                                 token + "' (" + std::string(expected) + ")");
}

// Parses the key=value arguments shared by mine and topk into
// `command->request` / `command->limit`. `verb` names the command in
// errors; keys not in `allow` are rejected so typos fail loudly instead of
// silently mining with defaults.
Status ParseQueryArgs(std::string_view verb,
                      const std::vector<std::string>& tokens, size_t first,
                      std::string_view allow, ServeCommand* command) {
  MineRequest& request = command->request;
  for (size_t i = first; i < tokens.size(); ++i) {
    const std::vector<std::string> kv = Split(tokens[i], "=");
    // semantics specs contain '=' themselves (window:w=10) — re-join.
    const std::string key = kv.empty() ? "" : kv[0];
    const std::string value =
        tokens[i].size() > key.size() + 1 ? tokens[i].substr(key.size() + 1)
                                          : "";
    if (allow.find("," + key + ",") == std::string_view::npos) {
      return BadArg(verb, tokens[i],
                    "accepted keys: " + std::string(allow.substr(1)));
    }
    uint64_t n = 0;
    double d = 0.0;
    if (key == "algo") {
      if (value == "closed") {
        request.miner = MineRequest::Miner::kClosed;
      } else if (value == "all") {
        request.miner = MineRequest::Miner::kAll;
      } else if (value == "gap") {
        request.miner = MineRequest::Miner::kGapConstrained;
      } else {
        return BadArg(verb, tokens[i], "algo=closed|all|gap");
      }
    } else if (key == "min_sup") {
      if (!ParseUint64(value, &n)) return BadArg(verb, tokens[i], "min_sup=N");
      request.options.min_support = n;
    } else if (key == "max_len") {
      if (!ParseUint64(value, &n)) return BadArg(verb, tokens[i], "max_len=N");
      request.options.max_pattern_length = static_cast<size_t>(n);
    } else if (key == "budget") {
      // Written as !(d > 0) so NaN, which compares false to everything, is
      // rejected too: a NaN budget would never expire.
      if (!ParseDouble(value, &d) || !(d > 0)) {
        return BadArg(verb, tokens[i], "budget=SECONDS");
      }
      request.options.time_budget_seconds = d;
    } else if (key == "threads") {
      if (!ParseUint64(value, &n)) return BadArg(verb, tokens[i], "threads=N");
      request.options.num_threads = static_cast<size_t>(n);
    } else if (key == "semantics") {
      Result<SemanticsOptions> parsed = ParseSemanticsSpec(value);
      if (!parsed.ok()) return parsed.status();
      request.options.semantics = *parsed;
    } else if (key == "events") {
      request.event_filter = Split(value, ",");
      if (request.event_filter.empty()) {
        return BadArg(verb, tokens[i], "events=name[,name...]");
      }
    } else if (key == "min_gap") {
      if (!ParseUint64(value, &n) || n > std::numeric_limits<uint32_t>::max()) {
        return BadArg(verb, tokens[i], "min_gap=N");
      }
      request.gap.min_gap = static_cast<uint32_t>(n);
    } else if (key == "max_gap") {
      if (!ParseUint64(value, &n) || n > std::numeric_limits<uint32_t>::max()) {
        return BadArg(verb, tokens[i], "max_gap=N");
      }
      request.gap.max_gap = static_cast<uint32_t>(n);
    } else if (key == "limit") {
      if (!ParseUint64(value, &n)) return BadArg(verb, tokens[i], "limit=N");
      command->limit = static_cast<size_t>(n);
    } else if (key == "k") {
      if (!ParseUint64(value, &n)) return BadArg(verb, tokens[i], "k=N");
      request.options.k = static_cast<size_t>(n);
    } else if (key == "min_len") {
      if (!ParseUint64(value, &n)) return BadArg(verb, tokens[i], "min_len=N");
      request.options.min_length = static_cast<size_t>(n);
    }
  }
  return Status::OK();
}

}  // namespace

Result<ServeCommand> ParseServeCommand(std::string_view line) {
  const std::vector<std::string> tokens = Split(line, " \t");
  if (tokens.empty()) {
    return Status::InvalidArgument("empty command");
  }
  ServeCommand command;
  const std::string& verb = tokens[0];
  if (verb == "append") {
    command.verb = ServeCommand::Verb::kAppend;
    command.events.assign(tokens.begin() + 1, tokens.end());
    return command;
  }
  if (verb == "extend") {
    command.verb = ServeCommand::Verb::kExtend;
    if (tokens.size() < 2) {
      return Status::InvalidArgument("extend: expected 'extend <seq> event...'");
    }
    uint64_t seq = 0;
    if (!ParseUint64(tokens[1], &seq) ||
        seq >= static_cast<uint64_t>(kNoPosition)) {
      return Status::InvalidArgument("extend: bad sequence id '" + tokens[1] +
                                     "'");
    }
    command.seq = static_cast<SeqId>(seq);
    command.events.assign(tokens.begin() + 2, tokens.end());
    return command;
  }
  if (verb == "mine") {
    command.verb = ServeCommand::Verb::kMine;
    Status st = ParseQueryArgs(
        "mine", tokens, 1,
        ",algo,min_sup,max_len,budget,threads,semantics,events,"
        "min_gap,max_gap,limit,",
        &command);
    if (!st.ok()) return st;
    return command;
  }
  if (verb == "topk") {
    command.verb = ServeCommand::Verb::kTopK;
    command.request.miner = MineRequest::Miner::kTopK;
    Status st = ParseQueryArgs(
        "topk", tokens, 1,
        ",k,min_len,max_len,budget,threads,semantics,events,limit,", &command);
    if (!st.ok()) return st;
    return command;
  }
  if (verb == "batch") {
    command.verb = ServeCommand::Verb::kBatch;
    return command;
  }
  if (verb == "run") {
    command.verb = ServeCommand::Verb::kRun;
    for (size_t i = 1; i < tokens.size(); ++i) {
      const std::vector<std::string> kv = Split(tokens[i], "=");
      uint64_t n = 0;
      if (kv.size() == 2 && kv[0] == "threads" && ParseUint64(kv[1], &n)) {
        command.run_threads = static_cast<size_t>(n);
      } else {
        return BadArg("run", tokens[i], "threads=N");
      }
    }
    return command;
  }
  if (verb == "stats") {
    command.verb = ServeCommand::Verb::kStats;
    return command;
  }
  if (verb == "metrics") {
    command.verb = ServeCommand::Verb::kMetrics;
    return command;
  }
  if (verb == "trace") {
    command.verb = ServeCommand::Verb::kTrace;
    if (tokens.size() < 2 || tokens[1] != "last" || tokens.size() > 3) {
      return Status::InvalidArgument("trace: expected 'trace last [n]'");
    }
    if (tokens.size() == 3) {
      uint64_t n = 0;
      if (!ParseUint64(tokens[2], &n) || n == 0) {
        return Status::InvalidArgument("trace: bad count '" + tokens[2] + "'");
      }
      command.trace_n = static_cast<size_t>(n);
    }
    return command;
  }
  if (verb == "checkpoint") {
    command.verb = ServeCommand::Verb::kCheckpoint;
    return command;
  }
  if (verb == "recover") {
    command.verb = ServeCommand::Verb::kRecover;
    return command;
  }
  if (verb == "quit" || verb == "exit") {
    command.verb = ServeCommand::Verb::kQuit;
    return command;
  }
  return Status::InvalidArgument(
      "unknown verb '" + verb +
      "' (append, extend, mine, topk, batch, run, stats, metrics, trace, "
      "checkpoint, recover, quit)");
}

void CanonicalizeMineRequest(MineRequest* request) {
  MinerOptions& options = request->options;
  // Answer-invariant execution knobs: output is byte-identical at any
  // thread count (parallel parity suite) and any ablation setting (the
  // toggles' own contract), and the warm-start hint converges to the same
  // answer from any value (core/topk.h) — none of them are identity.
  options.num_threads = 1;
  options.use_candidate_list = true;
  options.use_landmark_border_pruning = true;
  options.support_floor_hint = 0;

  // One restriction, one spelling: names sorted + deduplicated; a name
  // filter replaces any programmatic id restriction (the execution path
  // ignores restrict_alphabet when event_filter is non-empty).
  SortDedup(&request->event_filter);
  SortDedup(&options.restrict_alphabet);
  if (!request->event_filter.empty()) options.restrict_alphabet.clear();

  // Round-trip the semantics selection through its canonical spec string:
  // parameters of disabled measures (a window width with fixed_window off,
  // gap bounds with gap_occurrences off) reset to defaults, so selections
  // that annotate identically compare equal.
  if (options.semantics.AnyEnabled()) {
    Result<SemanticsOptions> round_trip =
        ParseSemanticsSpec(SemanticsSpecToString(options.semantics));
    // invariant: SemanticsSpecToString emits exactly the vocabulary
    // ParseSemanticsSpec accepts (its own doc contract); a failed
    // round-trip is a codec bug, not input.
    GSGROW_CHECK(round_trip.ok());
    options.semantics = *round_trip;
  } else {
    options.semantics = SemanticsOptions{};
  }

  // Fields of inactive miners are dead weight: default them so `mine
  // min_sup=2` and a programmatic request with a stale k compare equal.
  const MinerOptions defaults;
  if (request->miner == MineRequest::Miner::kTopK) {
    options.min_support = defaults.min_support;
  } else {
    options.k = defaults.k;
    options.min_length = defaults.min_length;
  }
  if (request->miner != MineRequest::Miner::kGapConstrained) {
    request->gap = LandmarkGapConstraint{};
  }
}

ResultCacheKey CanonicalRequestKey(const MineRequest& request) {
  MineRequest canonical = request;
  CanonicalizeMineRequest(&canonical);
  const MinerOptions& options = canonical.options;

  std::string key = "algo=";
  switch (canonical.miner) {
    case MineRequest::Miner::kAll: key += "all"; break;
    case MineRequest::Miner::kClosed: key += "closed"; break;
    case MineRequest::Miner::kTopK: key += "topk"; break;
    case MineRequest::Miner::kGapConstrained: key += "gap"; break;
  }
  if (canonical.miner == MineRequest::Miner::kTopK) {
    key += " k=" + std::to_string(options.k);
    key += " min_len=" + std::to_string(options.min_length);
  } else {
    key += " min_sup=" + std::to_string(options.min_support);
  }
  // Default-valued fields are elided, so an explicitly-spelled default
  // ("max_gap=4294967295") and an elided one share a key.
  if (options.max_pattern_length != std::numeric_limits<size_t>::max()) {
    key += " max_len=" + std::to_string(options.max_pattern_length);
  }
  if (options.max_patterns != std::numeric_limits<uint64_t>::max()) {
    key += " max_patterns=" + std::to_string(options.max_patterns);
  }
  // Finite budgets make a request uncacheable (mining_service.cc), but the
  // canonical form is also an equality oracle for tests — keep budget
  // identity-bearing rather than silently conflating.
  if (options.time_budget_seconds !=
      std::numeric_limits<double>::infinity()) {
    key += " budget=" + std::to_string(options.time_budget_seconds);
  }
  if (!options.collect_patterns) key += " collect=0";
  if (canonical.miner == MineRequest::Miner::kGapConstrained) {
    if (canonical.gap.min_gap != 0) {
      key += " min_gap=" + std::to_string(canonical.gap.min_gap);
    }
    if (canonical.gap.max_gap != std::numeric_limits<uint32_t>::max()) {
      key += " max_gap=" + std::to_string(canonical.gap.max_gap);
    }
  }
  if (options.semantics.AnyEnabled()) {
    key += " semantics=" + SemanticsSpecToString(options.semantics);
  }
  if (!canonical.event_filter.empty()) {
    // Event names cannot contain whitespace (the protocol tokenizes on it)
    // but CAN contain commas via programmatic Append — join on the unit
    // separator, which no parseable name carries.
    key += " events=";
    for (size_t i = 0; i < canonical.event_filter.size(); ++i) {
      if (i > 0) key.push_back('\x1f');
      key += canonical.event_filter[i];
    }
  } else if (!options.restrict_alphabet.empty()) {
    key += " ids=";
    for (size_t i = 0; i < options.restrict_alphabet.size(); ++i) {
      if (i > 0) key.push_back(',');
      key += std::to_string(options.restrict_alphabet[i]);
    }
  }
  return ResultCacheKey(std::move(key));
}

namespace {

// Appends a mine/topk response's text to `out` (FormatMineResponse's
// contract). After each row, `spill(out)` may hand the text on and clear
// it, so both response functions share every byte of the formatting.
template <typename Spill>
void AppendMineResponse(const MineResponse& response,
                        const EventDictionary& dictionary, size_t limit,
                        std::string* out, Spill spill) {
  if (!response.status.ok()) {
    *out += "error ";
    *out += response.status.ToString();
    out->push_back('\n');
    return;
  }
  *out += "result patterns=";
  *out += std::to_string(response.patterns.size());
  *out += " epoch=";
  *out += std::to_string(response.epoch);
  if (response.stats.truncated) {
    *out += " truncated=";
    *out += response.stats.truncated_reason;
  }
  out->push_back('\n');
  const size_t n = std::min(limit, response.patterns.size());
  for (size_t i = 0; i < n; ++i) {
    AppendPatternLine(response.patterns[i], dictionary, out);
    out->push_back('\n');
    spill(out);
  }
}

// WriteMineResponse hands the stream this much text at a time.
constexpr size_t kWriteChunkBytes = 64 << 10;

}  // namespace

std::string FormatMineResponse(const MineResponse& response,
                               const EventDictionary& dictionary,
                               size_t limit) {
  std::string out;
  AppendMineResponse(response, dictionary, limit, &out, [](std::string*) {});
  return out;
}

void WriteMineResponse(const MineResponse& response,
                       const EventDictionary& dictionary, size_t limit,
                       std::ostream& out) {
  const auto write = [&out](const std::string& text) {
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  };
  std::string buffer;
  AppendMineResponse(response, dictionary, limit, &buffer,
                     [&](std::string* text) {
                       if (text->size() < kWriteChunkBytes) return;
                       write(*text);
                       text->clear();
                     });
  write(buffer);
}

std::string FormatServiceStats(const ServiceStats& stats) {
  // recover_seconds is wall-clock and intentionally omitted: this line
  // appears in golden transcripts (service_types.h).
  return "stats sequences=" + std::to_string(stats.num_sequences) +
         " alphabet=" + std::to_string(stats.alphabet_size) +
         " events=" + std::to_string(stats.total_events) +
         " epoch=" + std::to_string(stats.epoch) +
         " appends=" + std::to_string(stats.appends) +
         " queries=" + std::to_string(stats.queries) +
         " cache_hits=" + std::to_string(stats.cache_hits) +
         " cache_misses=" + std::to_string(stats.cache_misses) +
         " cache_revalidated=" + std::to_string(stats.cache_revalidated) +
         " cache_evicted=" + std::to_string(stats.cache_evicted) +
         " wal_segments=" + std::to_string(stats.wal_segments) +
         " wal_bytes=" + std::to_string(stats.wal_live_bytes) +
         " checkpoints=" + std::to_string(stats.checkpoints) +
         " replay_records=" + std::to_string(stats.wal_replay_records);
}

std::string FormatRecoveryInfo(const RecoveryInfo& info) {
  return "recovered epoch=" + std::to_string(info.recovered_epoch) +
         " sequences=" + std::to_string(info.recovered_sequences) +
         " checkpoint=" + std::to_string(info.recovered_checkpoint ? 1 : 0) +
         " checkpoint_epoch=" + std::to_string(info.checkpoint_epoch) +
         " wal_records=" + std::to_string(info.wal_replay_records) +
         " torn_tail=" + std::to_string(info.torn_tail_dropped ? 1 : 0);
}

}  // namespace gsgrow
