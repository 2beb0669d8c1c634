#include "io/request_io.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <ostream>

#include "core/semantics_sink.h"
#include "io/pattern_io.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace gsgrow {

namespace {

template <typename T>
void SortDedup(std::vector<T>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

Status BadArg(std::string_view verb, std::string_view token,
              std::string_view expected) {
  std::string message(verb);
  message += ": bad argument '";
  message += token;
  message += "' (";
  message += expected;
  message += ")";
  return Status::InvalidArgument(std::move(message));
}

// Protocol tokens are separated by runs of spaces and tabs.
constexpr std::string_view kBlanks = " \t";

// The verbs a query field belongs to (QueryField::verbs).
constexpr unsigned kMineVerb = 1;
constexpr unsigned kTopKVerb = 2;

// How a query field's value is read.
enum class FieldKind {
  kAlgo,       // closed|all|gap
  kCount,      // an unsigned integer in [min, max], stored by `set`
  kSeconds,    // the budget: a number of seconds > 0 (NaN and 0 fail)
  kSemantics,  // a ParseSemanticsSpec selection (its errors are its own)
  kEvents,     // a comma-separated name list with at least one name
};

// One key=value argument of mine/topk.
struct QueryField {
  std::string_view key;
  unsigned verbs;
  FieldKind kind;
  std::string_view shape;  // the accepted form, named in errors
  uint64_t min = 0;
  uint64_t max = 0;
  void (*set)(ServeCommand& command, uint64_t n) = nullptr;
};

constexpr uint64_t kAnyCount = std::numeric_limits<uint64_t>::max();
constexpr uint64_t kAnyGap = std::numeric_limits<uint32_t>::max();

// Every mine/topk field. The "accepted keys" error lists a verb's keys in
// this order.
constexpr QueryField kQueryFields[] = {
    {"algo", kMineVerb, FieldKind::kAlgo, "algo=closed|all|gap"},
    {"min_sup", kMineVerb, FieldKind::kCount, "min_sup=N", 0, kAnyCount,
     [](ServeCommand& c, uint64_t n) { c.request.options.min_support = n; }},
    {"k", kTopKVerb, FieldKind::kCount, "k=N", 0, kAnyCount,
     [](ServeCommand& c, uint64_t n) { c.request.options.k = n; }},
    {"min_len", kTopKVerb, FieldKind::kCount, "min_len=N", 0, kAnyCount,
     [](ServeCommand& c, uint64_t n) { c.request.options.min_length = n; }},
    {"max_len", kMineVerb | kTopKVerb, FieldKind::kCount, "max_len=N", 0,
     kAnyCount,
     [](ServeCommand& c, uint64_t n) {
       c.request.options.max_pattern_length = n;
     }},
    {"budget", kMineVerb | kTopKVerb, FieldKind::kSeconds, "budget=SECONDS"},
    {"threads", kMineVerb | kTopKVerb, FieldKind::kCount, "threads=N", 0,
     kAnyCount,
     [](ServeCommand& c, uint64_t n) { c.request.options.num_threads = n; }},
    {"semantics", kMineVerb | kTopKVerb, FieldKind::kSemantics, ""},
    {"events", kMineVerb | kTopKVerb, FieldKind::kEvents,
     "events=name[,name...]"},
    {"min_gap", kMineVerb, FieldKind::kCount, "min_gap=N", 0, kAnyGap,
     [](ServeCommand& c, uint64_t n) {
       c.request.gap.min_gap = static_cast<uint32_t>(n);
     }},
    {"max_gap", kMineVerb, FieldKind::kCount, "max_gap=N", 0, kAnyGap,
     [](ServeCommand& c, uint64_t n) {
       c.request.gap.max_gap = static_cast<uint32_t>(n);
     }},
    {"limit", kMineVerb | kTopKVerb, FieldKind::kCount, "limit=N", 0,
     kAnyCount, [](ServeCommand& c, uint64_t n) { c.limit = n; }},
};

const QueryField* FindQueryField(std::string_view key, unsigned verb) {
  for (const QueryField& field : kQueryFields) {
    if ((field.verbs & verb) != 0 && field.key == key) return &field;
  }
  return nullptr;
}

// "accepted keys: a,b,...,": every key of `verb`, each followed by a comma.
std::string AcceptedKeys(unsigned verb) {
  std::string text = "accepted keys: ";
  for (const QueryField& field : kQueryFields) {
    if ((field.verbs & verb) == 0) continue;
    text += field.key;
    text += ',';
  }
  return text;
}

// Parses one key=value argument of mine/topk into `command`. The key is
// the token's first non-empty '='-separated piece, and the value is what
// follows the key's length plus one byte of the token, so a semantics spec
// keeps its own '=' (window:w=10). Unknown keys are rejected, so typos
// fail loudly instead of silently mining with defaults; a repeated key
// overwrites the earlier value.
Status ParseQueryField(std::string_view verb_name, unsigned verb,
                       std::string_view token, ServeCommand* command) {
  size_t pos = 0;
  const std::string_view key = NextToken(token, "=", &pos);
  const std::string_view value =
      token.size() > key.size() + 1 ? token.substr(key.size() + 1) : "";
  const QueryField* field = FindQueryField(key, verb);
  if (field == nullptr) return BadArg(verb_name, token, AcceptedKeys(verb));
  MineRequest& request = command->request;
  switch (field->kind) {
    case FieldKind::kAlgo:
      if (value == "closed") {
        request.miner = MineRequest::Miner::kClosed;
      } else if (value == "all") {
        request.miner = MineRequest::Miner::kAll;
      } else if (value == "gap") {
        request.miner = MineRequest::Miner::kGapConstrained;
      } else {
        return BadArg(verb_name, token, field->shape);
      }
      return Status::OK();
    case FieldKind::kCount: {
      uint64_t n = 0;
      if (!ParseInRange(value, &n, field->min, field->max)) {
        return BadArg(verb_name, token, field->shape);
      }
      field->set(*command, n);
      return Status::OK();
    }
    case FieldKind::kSeconds:
      // The least positive double is the lower bound, so 0 fails; a NaN
      // budget, which would never expire, fails every comparison.
      if (!ParseInRange(value, &request.options.time_budget_seconds,
                        std::numeric_limits<double>::denorm_min(),
                        std::numeric_limits<double>::infinity())) {
        return BadArg(verb_name, token, field->shape);
      }
      return Status::OK();
    case FieldKind::kSemantics: {
      Result<SemanticsOptions> parsed = ParseSemanticsSpec(value);
      if (!parsed.ok()) return parsed.status();
      request.options.semantics = *parsed;
      return Status::OK();
    }
    case FieldKind::kEvents: {
      request.event_filter.clear();
      request.event_filter.reserve(
          static_cast<size_t>(std::count(value.begin(), value.end(), ',')) +
          1);
      size_t at = 0;
      for (std::string_view name = NextToken(value, ",", &at); !name.empty();
           name = NextToken(value, ",", &at)) {
        request.event_filter.emplace_back(name);
      }
      if (request.event_filter.empty()) {
        return BadArg(verb_name, token, field->shape);
      }
      return Status::OK();
    }
  }
  return Status::OK();
}

// The protocol's verbs, in the order the unknown-verb error lists them
// ("exit" is an unlisted spelling of quit).
struct VerbName {
  std::string_view name;
  ServeCommand::Verb verb;
};

constexpr VerbName kVerbs[] = {
    {"append", ServeCommand::Verb::kAppend},
    {"extend", ServeCommand::Verb::kExtend},
    {"mine", ServeCommand::Verb::kMine},
    {"topk", ServeCommand::Verb::kTopK},
    {"batch", ServeCommand::Verb::kBatch},
    {"run", ServeCommand::Verb::kRun},
    {"stats", ServeCommand::Verb::kStats},
    {"metrics", ServeCommand::Verb::kMetrics},
    {"trace", ServeCommand::Verb::kTrace},
    {"checkpoint", ServeCommand::Verb::kCheckpoint},
    {"recover", ServeCommand::Verb::kRecover},
    {"quit", ServeCommand::Verb::kQuit},
    {"exit", ServeCommand::Verb::kQuit},
};

// The tokens after `*pos`, as owned event names.
std::vector<std::string> RestAsNames(std::string_view line, size_t* pos) {
  std::vector<std::string> names;
  for (std::string_view token = NextToken(line, kBlanks, pos); !token.empty();
       token = NextToken(line, kBlanks, pos)) {
    names.emplace_back(token);
  }
  return names;
}

}  // namespace

Result<ServeCommand> ParseServeCommand(std::string_view line) {
  size_t pos = 0;
  const std::string_view verb = NextToken(line, kBlanks, &pos);
  if (verb.empty()) {
    return Status::InvalidArgument("empty command");
  }
  const VerbName* known = nullptr;
  for (const VerbName& v : kVerbs) {
    if (v.name == verb) {
      known = &v;
      break;
    }
  }
  if (known == nullptr) {
    return Status::InvalidArgument(
        "unknown verb '" + std::string(verb) +
        "' (append, extend, mine, topk, batch, run, stats, metrics, trace, "
        "checkpoint, recover, quit)");
  }
  ServeCommand command;
  command.verb = known->verb;
  switch (command.verb) {
    case ServeCommand::Verb::kAppend:
      command.events = RestAsNames(line, &pos);
      return command;
    case ServeCommand::Verb::kExtend: {
      const std::string_view seq = NextToken(line, kBlanks, &pos);
      if (seq.empty()) {
        return Status::InvalidArgument(
            "extend: expected 'extend <seq> event...'");
      }
      uint64_t id = 0;
      if (!ParseInRange<uint64_t>(seq, &id, 0, kNoPosition - 1)) {
        return Status::InvalidArgument("extend: bad sequence id '" +
                                       std::string(seq) + "'");
      }
      command.seq = static_cast<SeqId>(id);
      command.events = RestAsNames(line, &pos);
      return command;
    }
    case ServeCommand::Verb::kMine:
    case ServeCommand::Verb::kTopK: {
      const bool topk = command.verb == ServeCommand::Verb::kTopK;
      if (topk) command.request.miner = MineRequest::Miner::kTopK;
      for (std::string_view token = NextToken(line, kBlanks, &pos);
           !token.empty(); token = NextToken(line, kBlanks, &pos)) {
        Status st = ParseQueryField(verb, topk ? kTopKVerb : kMineVerb, token,
                                    &command);
        if (!st.ok()) return st;
      }
      return command;
    }
    case ServeCommand::Verb::kRun:
      // Each argument is exactly two non-empty '='-separated pieces,
      // threads and a count.
      for (std::string_view token = NextToken(line, kBlanks, &pos);
           !token.empty(); token = NextToken(line, kBlanks, &pos)) {
        size_t at = 0;
        const std::string_view key = NextToken(token, "=", &at);
        const std::string_view value = NextToken(token, "=", &at);
        uint64_t n = 0;
        if (key != "threads" || !NextToken(token, "=", &at).empty() ||
            !ParseInRange<uint64_t>(value, &n, 0, kAnyCount)) {
          return BadArg("run", token, "threads=N");
        }
        command.run_threads = static_cast<size_t>(n);
      }
      return command;
    case ServeCommand::Verb::kTrace: {
      const std::string_view last = NextToken(line, kBlanks, &pos);
      const std::string_view count = NextToken(line, kBlanks, &pos);
      if (last != "last" || !NextToken(line, kBlanks, &pos).empty()) {
        return Status::InvalidArgument("trace: expected 'trace last [n]'");
      }
      if (!count.empty()) {
        uint64_t n = 0;
        if (!ParseInRange<uint64_t>(count, &n, 1, kAnyCount)) {
          return Status::InvalidArgument("trace: bad count '" +
                                         std::string(count) + "'");
        }
        command.trace_n = static_cast<size_t>(n);
      }
      return command;
    }
    default:
      // The remaining verbs take no argument; trailing tokens are ignored.
      return command;
  }
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

  // Parameters of disabled measures (a window width with fixed_window off,
  // gap bounds with gap_occurrences off) reset to their defaults, so
  // selections that annotate identically compare equal. This is what a
  // round trip through the spec string gives (SemanticsSpecToString omits
  // them); RequestCanonicalization.SemanticsResetEqualsSpecRoundTrip pins
  // the two equal.
  SemanticsOptions& semantics = options.semantics;
  const SemanticsOptions unset;
  if (!semantics.fixed_window) semantics.window_width = unset.window_width;
  if (!semantics.gap_occurrences) {
    semantics.min_gap = unset.min_gap;
    semantics.max_gap = unset.max_gap;
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

namespace {

void AppendNumber(uint64_t value, std::string* out) {
  char digits[20];
  const std::to_chars_result end =
      std::to_chars(digits, digits + sizeof(digits), value);
  out->append(digits, end.ptr);
}

// Appends " <name>=<value>" to the key text.
void AppendField(std::string_view name, uint64_t value, std::string* key) {
  key->push_back(' ');
  key->append(name);
  key->push_back('=');
  AppendNumber(value, key);
}

}  // namespace

ResultCacheKey CanonicalRequestKey(const MineRequest& request,
                                   MineRequest* canonical_out) {
  MineRequest local;
  MineRequest& canonical = canonical_out != nullptr ? *canonical_out : local;
  canonical = request;
  CanonicalizeMineRequest(&canonical);
  const MinerOptions& options = canonical.options;

  // The fixed fields fit in 96 bytes; a name filter adds its names.
  size_t reserve = 96;
  for (const std::string& name : canonical.event_filter) {
    reserve += name.size() + 1;
  }
  std::string key;
  key.reserve(reserve);
  key += "algo=";
  switch (canonical.miner) {
    case MineRequest::Miner::kAll: key += "all"; break;
    case MineRequest::Miner::kClosed: key += "closed"; break;
    case MineRequest::Miner::kTopK: key += "topk"; break;
    case MineRequest::Miner::kGapConstrained: key += "gap"; break;
  }
  if (canonical.miner == MineRequest::Miner::kTopK) {
    AppendField("k", options.k, &key);
    AppendField("min_len", options.min_length, &key);
  } else {
    AppendField("min_sup", options.min_support, &key);
  }
  // Default-valued fields are elided, so an explicitly-spelled default
  // ("max_gap=4294967295") and an elided one share a key.
  if (options.max_pattern_length != std::numeric_limits<size_t>::max()) {
    AppendField("max_len", options.max_pattern_length, &key);
  }
  if (options.max_patterns != std::numeric_limits<uint64_t>::max()) {
    AppendField("max_patterns", options.max_patterns, &key);
  }
  // Finite budgets make a request uncacheable (mining_service.cc), but the
  // canonical form is also an equality oracle for tests — keep budget
  // identity-bearing rather than silently conflating.
  if (options.time_budget_seconds !=
      std::numeric_limits<double>::infinity()) {
    key += " budget=";
    key += std::to_string(options.time_budget_seconds);
  }
  if (!options.collect_patterns) key += " collect=0";
  if (canonical.miner == MineRequest::Miner::kGapConstrained) {
    if (canonical.gap.min_gap != 0) {
      AppendField("min_gap", canonical.gap.min_gap, &key);
    }
    if (canonical.gap.max_gap != std::numeric_limits<uint32_t>::max()) {
      AppendField("max_gap", canonical.gap.max_gap, &key);
    }
  }
  if (options.semantics.AnyEnabled()) {
    key += " semantics=";
    key += SemanticsSpecToString(options.semantics);
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
      AppendNumber(options.restrict_alphabet[i], &key);
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
