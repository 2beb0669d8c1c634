// A seeded differential fuzzer for the serve protocol front end.
//
// ProtocolFuzz.ParserMatchesReference: ParseServeCommand, a one-pass parser
// over string views and a static field table, against the token-vector
// parser it replaced (kept below as the reference, with the semantics spec
// parser it called), on seeded random lines: known and unknown verbs and
// keys, repeated keys, '=' inside values, empty and comma-only filters,
// tabs, '\r', NUL and high bytes, numbers at 0, at their maximum and past
// it, and NaN budgets. Both must give the same command or the same error
// text. SemanticsSpecMatchesReference does the same for ParseSemanticsSpec
// and SemanticsSpecToString alone.
//
// ProtocolFuzz.SessionAnswersEveryLine: RunServeSession over seeded lines
// on a fixed corpus of three sequences of at most six events (appends and
// extends are left out, so every mine stays small), with a sentinel line
// after each: every line must get exactly one response, and the session
// must survive to the end of its input.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"

#include "core/semantics_sink.h"
#include "io/request_io.h"
#include "serve/mining_service.h"
#include "serve/serve_session.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace gsgrow {
namespace {

// ---------------------------------------------------------------------------
// The reference: the token-vector parsers ParseServeCommand and
// ParseSemanticsSpec replaced.

constexpr std::string_view kSpecVocabulary =
    "sequence_count (seqcount), fixed_window (window; param w), "
    "minimal_window (minwindow), gap_occurrences (gap; params min, max), "
    "interaction, iterative, all";

Status SpecError(std::string_view item, std::string_view detail) {
  return Status::InvalidArgument("bad --semantics item '" + std::string(item) +
                                 "': " + std::string(detail) +
                                 "; valid measures: " +
                                 std::string(kSpecVocabulary));
}

Result<SemanticsOptions> ReferenceSemanticsSpec(std::string_view spec) {
  SemanticsOptions out;
  const std::string_view trimmed = Trim(spec);
  if (trimmed.empty()) {
    return Status::InvalidArgument(
        "empty --semantics spec; valid measures: " +
        std::string(kSpecVocabulary));
  }
  for (const std::string& item : Split(trimmed, ",")) {
    const std::vector<std::string> parts = Split(item, ":");
    if (parts.empty()) continue;
    const std::string& name = parts[0];
    // Per-measure key=value parameters.
    bool want_w = false;
    bool want_gap_params = false;
    if (name == "sequence_count" || name == "seqcount") {
      out.sequence_count = true;
    } else if (name == "fixed_window" || name == "window") {
      out.fixed_window = true;
      want_w = true;
    } else if (name == "minimal_window" || name == "minwindow") {
      out.minimal_window = true;
    } else if (name == "gap_occurrences" || name == "gap") {
      out.gap_occurrences = true;
      want_gap_params = true;
    } else if (name == "interaction") {
      out.interaction = true;
    } else if (name == "iterative") {
      out.iterative = true;
    } else if (name == "all") {
      const size_t w = out.window_width;
      const size_t min_gap = out.min_gap;
      const size_t max_gap = out.max_gap;
      out = SemanticsOptions::All(w, min_gap, max_gap);
      want_w = want_gap_params = true;
    } else {
      return SpecError(item, "unknown measure '" + name + "'");
    }
    for (size_t i = 1; i < parts.size(); ++i) {
      const std::vector<std::string> kv = Split(parts[i], "=");
      int64_t value = 0;
      if (kv.size() != 2 || !ParseInt64(kv[1], &value) || value < 0) {
        return SpecError(item, "expected key=value with a non-negative "
                               "integer, got '" +
                                   parts[i] + "'");
      }
      if (kv[0] == "w" && want_w) {
        if (value == 0) return SpecError(item, "window width must be >= 1");
        out.window_width = static_cast<size_t>(value);
      } else if (kv[0] == "min" && want_gap_params) {
        out.min_gap = static_cast<size_t>(value);
      } else if (kv[0] == "max" && want_gap_params) {
        out.max_gap = static_cast<size_t>(value);
      } else {
        return SpecError(item, "unknown parameter '" + kv[0] + "' for '" +
                                   name + "'");
      }
    }
  }
  if (out.gap_occurrences && out.min_gap > out.max_gap) {
    return SpecError(spec, "gap requires min <= max");
  }
  return out;
}

// The spec string rendering SemanticsSpecToString replaced.
std::string ReferenceSpecToString(const SemanticsOptions& options) {
  std::vector<std::string> items;
  if (options.sequence_count) items.push_back("sequence_count");
  if (options.fixed_window) {
    items.push_back("fixed_window:w=" +
                    std::to_string(options.window_width));
  }
  if (options.minimal_window) items.push_back("minimal_window");
  if (options.gap_occurrences) {
    std::string item = "gap_occurrences:min=" + std::to_string(options.min_gap);
    if (options.max_gap != std::numeric_limits<size_t>::max()) {
      item += ":max=" + std::to_string(options.max_gap);
    }
    items.push_back(std::move(item));
  }
  if (options.interaction) items.push_back("interaction");
  if (options.iterative) items.push_back("iterative");
  return Join(items, ",");
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
    // The one change from the parser this copy reproduces: a key holding
    // a comma ("algo,min_sup") matched a run of allowed keys and was
    // silently ignored; it is now an unknown key.
    if (key.find(',') != std::string::npos ||
        allow.find("," + key + ",") == std::string_view::npos) {
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
      Result<SemanticsOptions> parsed = ReferenceSemanticsSpec(value);
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


Result<ServeCommand> ReferenceParse(std::string_view line) {
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

// ---------------------------------------------------------------------------
// The line generator

std::string Pick(Rng& rng, const std::vector<std::string>& options) {
  return options[rng.UniformInt(options.size())];
}

const std::vector<std::string>& Numbers() {
  static const std::vector<std::string> numbers = {
      "0", "1", "2", "3", "7", "10", "4294967295", "4294967296",
      "18446744073709551615", "18446744073709551616",
      "99999999999999999999999", "-1", "+5", "05", "1e3", "0x10", "1.5",
      "", "abc", "5\r", "\r5", "5\t", "nan", "-nan", "inf", "-inf",
      "1e400", "0.0", "1e-400", "4.9e-324", "0.25", "NaN"};
  return numbers;
}

// Counts the session fuzz can send without spawning many workers.
const std::vector<std::string>& SmallCounts() {
  static const std::vector<std::string> counts = {"0", "1", "2", "3", "10",
                                                  "", "x", "-1"};
  return counts;
}

struct LineGenerator {
  explicit LineGenerator(uint64_t seed, bool session)
      : rng(seed), session(session) {}

  std::string Separator() {
    std::string sep = rng.Bernoulli(0.8) ? " " : "\t";
    while (rng.Bernoulli(0.15)) sep += rng.Bernoulli(0.5) ? " " : "\t";
    return sep;
  }

  std::string Name() {
    return Pick(rng, {"A", "B", "C", "D", "a", "login", "E\xff", "\x80",
                      "x=y", "n,m", "Z"});
  }

  std::string NameList() {
    switch (rng.UniformInt(8)) {
      case 0: return "";
      case 1: return ",";
      case 2: return ",,";
      case 3: return "," + Name() + ",," + Name() + ",";
      default: {
        std::string list = Name();
        const uint64_t more = rng.UniformInt(12);
        for (uint64_t i = 0; i < more; ++i) list += "," + Name();
        return list;
      }
    }
  }

  // A semantics selection: measure names, aliases and typos, with
  // parameters well- and ill-formed, joined by ',' and ':' with empties.
  std::string Spec() {
    std::string spec;
    const uint64_t items = rng.UniformInt(4);
    for (uint64_t i = 0; i < items; ++i) {
      if (i > 0 || rng.Bernoulli(0.1)) spec += rng.Bernoulli(0.9) ? "," : ",,";
      spec += Pick(rng, {"seqcount", "sequence_count", "window",
                         "fixed_window", "minwindow", "minimal_window", "gap",
                         "gap_occurrences", "interaction", "iterative", "all",
                         "bogus", "", ":"});
      while (rng.Bernoulli(0.4)) {
        spec += rng.Bernoulli(0.9) ? ":" : "::";
        spec += Pick(rng, {"w=", "min=", "max=", "x=", "", "=", "w==", "="}) +
                Pick(rng, {"0", "1", "3", "10", "-1", "", "a",
                           "9223372036854775807", "9223372036854775808",
                           "2=3"});
      }
    }
    if (rng.Bernoulli(0.05)) spec += ",";
    return spec;
  }

  std::string Count(std::string_view key) {
    if (clean) return Pick(rng, {"1", "2", "3"});
    if (session && (key == "threads" || key == "run")) {
      return Pick(rng, SmallCounts());
    }
    return Pick(rng, Numbers());
  }

  std::string Value(std::string_view key) {
    if (key == "algo") {
      if (clean) return Pick(rng, {"closed", "all", "gap"});
      return Pick(rng, {"closed", "all", "gap", "bogus", "", "ALL", "gap="});
    }
    if (clean && key == "semantics") {
      return Pick(rng, {"seqcount", "window:w=3", "all", "gap:min=0:max=2"});
    }
    if (clean && key == "events") {
      return Pick(rng, {"A", "B,A", "C,D,A", "B,E"});
    }
    if (key == "semantics") return Spec();
    if (key == "events") return NameList();
    return Count(key);
  }

  std::string Argument(bool topk) {
    static const std::vector<std::string> keys = {
        "algo", "min_sup", "k", "min_len", "max_len", "budget", "threads",
        "semantics", "events", "min_gap", "max_gap", "limit"};
    static const std::vector<std::string> mine_keys = {
        "algo", "min_sup", "max_len", "budget", "threads", "semantics",
        "events", "min_gap", "max_gap", "limit"};
    static const std::vector<std::string> topk_keys = {
        "k", "min_len", "max_len", "budget", "threads", "semantics", "events",
        "limit"};
    if (clean) {
      const std::string key = Pick(rng, topk ? topk_keys : mine_keys);
      return key + "=" + Value(key);
    }
    std::string key = Pick(rng, keys);
    switch (rng.UniformInt(12)) {
      case 0: key = Pick(rng, {"frobnicate", "", "Min_sup", "algo,min_sup",
                               "min_sup,max_len", "limit,", ",k"});
        break;
      case 1: return Pick(rng, {"=min_sup=3", "==k=2", "min_sup==3",
                                "events=a=b", "limit=3=", "=", "===",
                                "semantics", "min_sup"});
      default: break;
    }
    return key + "=" + Value(key);
  }

  std::string Line() {
    static const std::vector<std::string> verbs = {
        "append", "extend", "mine", "mine", "mine", "topk", "topk", "batch",
        "run", "stats", "metrics", "trace", "checkpoint", "recover", "quit",
        "exit", "MINE", "mine2", "frob", ""};
    clean = session && rng.Bernoulli(0.5);
    const std::string verb = Pick(rng, verbs);
    std::string line = rng.Bernoulli(0.1) ? Separator() : "";
    line += verb;
    if (verb == "mine" || verb == "topk") {
      const uint64_t args = rng.UniformInt(6);
      for (uint64_t i = 0; i < args; ++i) {
        line += Separator() + Argument(verb == "topk");
      }
    } else if (verb == "append" || verb == "extend") {
      if (verb == "extend" && rng.Bernoulli(0.9)) {
        line += Separator() + Pick(rng, Numbers());
      }
      const uint64_t names = rng.UniformInt(5);
      for (uint64_t i = 0; i < names; ++i) line += Separator() + Name();
    } else if (verb == "run") {
      const uint64_t args = rng.UniformInt(3);
      for (uint64_t i = 0; i < args; ++i) {
        line += Separator() +
                Pick(rng, {"threads=" + Count("run"), "speed=1",
                           "=threads=2", "threads==2", "threads=2=",
                           "threads", "threads=" + Count("run") + "=x"});
      }
    } else if (verb == "trace") {
      const uint64_t args = rng.UniformInt(4);
      for (uint64_t i = 0; i < args; ++i) {
        line += Separator() +
                (i == 0 && rng.Bernoulli(0.8) ? "last" : Count("trace"));
      }
    } else if (rng.Bernoulli(0.2)) {
      line += Separator() + "extra";
    }
    if (rng.Bernoulli(0.1)) line += Separator();
    // Raw bytes: replace or insert a few anywhere in the line.
    static const std::vector<std::string> raw = {
        "\t", "\r", std::string(1, '\0'), "\xff", "\x80", "=", ",", " ",
        "\x1f", "#", "\n"};
    while (!clean && rng.Bernoulli(0.15)) {
      const std::string byte = Pick(rng, raw);
      if (byte == "\n") continue;  // one line at a time
      const size_t at = rng.UniformInt(line.size() + 1);
      if (at < line.size() && rng.Bernoulli(0.5)) {
        line.replace(at, 1, byte);
      } else {
        line.insert(at, byte);
      }
    }
    return line;
  }

  Rng rng;
  bool session;
  // Session lines are well-formed half of the time, so that many of them
  // reach the service; parser lines never are on purpose.
  bool clean = false;
};

// Every field of a parsed command, so two commands compare as text.
std::string Describe(const ServeCommand& c) {
  char budget[64];
  std::snprintf(budget, sizeof(budget), "%a",
                c.request.options.time_budget_seconds);
  std::string out = "verb=" + std::to_string(static_cast<int>(c.verb));
  out += " seq=" + std::to_string(c.seq);
  out += " limit=" + std::to_string(c.limit);
  out += " run_threads=" + std::to_string(c.run_threads);
  out += " trace_n=" + std::to_string(c.trace_n);
  out += " events=" + Join(c.events, "|");
  const MineRequest& r = c.request;
  const MinerOptions& o = r.options;
  out += " miner=" + std::to_string(static_cast<int>(r.miner));
  out += " min_sup=" + std::to_string(o.min_support);
  out += " max_len=" + std::to_string(o.max_pattern_length);
  out += " max_patterns=" + std::to_string(o.max_patterns);
  out += " budget=" + std::string(budget);
  out += " threads=" + std::to_string(o.num_threads);
  const SemanticsOptions& m = o.semantics;
  out += " measures=" + std::to_string(m.sequence_count) +
         std::to_string(m.fixed_window) + std::to_string(m.minimal_window) +
         std::to_string(m.gap_occurrences) + std::to_string(m.interaction) +
         std::to_string(m.iterative);
  out += " w=" + std::to_string(o.semantics.window_width);
  out += " smin=" + std::to_string(o.semantics.min_gap);
  out += " smax=" + std::to_string(o.semantics.max_gap);
  out += " k=" + std::to_string(o.k);
  out += " min_len=" + std::to_string(o.min_length);
  out += " filter=" + Join(r.event_filter, "|");
  out += " min_gap=" + std::to_string(r.gap.min_gap);
  out += " max_gap=" + std::to_string(r.gap.max_gap);
  return out;
}

std::string Outcome(const Result<ServeCommand>& parsed) {
  return parsed.ok() ? Describe(*parsed)
                     : "error " + parsed.status().ToString();
}

// Printable form of a line for failure messages.
std::string Escaped(std::string_view line) {
  std::string out;
  for (const char ch : line) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c >= 0x20 && c < 0x7f) {
      out.push_back(ch);
    } else {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\x%02x", c);
      out += hex;
    }
  }
  return out;
}

TEST(ProtocolFuzz, ParserMatchesReference) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    LineGenerator gen(seed, /*session=*/false);
    for (int i = 0; i < 20000; ++i) {
      const std::string line = gen.Line();
      ASSERT_EQ(Outcome(ParseServeCommand(line)), Outcome(ReferenceParse(line)))
          << "seed " << seed << " line " << i << ": " << Escaped(line);
    }
  }
}

TEST(ProtocolFuzz, SemanticsSpecMatchesReference) {
  LineGenerator gen(21, /*session=*/false);
  for (int i = 0; i < 20000; ++i) {
    const std::string spec = gen.Spec();
    const Result<SemanticsOptions> got = ParseSemanticsSpec(spec);
    const Result<SemanticsOptions> want = ReferenceSemanticsSpec(spec);
    ASSERT_EQ(got.ok(), want.ok()) << Escaped(spec);
    if (!got.ok()) {
      ASSERT_EQ(got.status().ToString(), want.status().ToString())
          << Escaped(spec);
      continue;
    }
    ASSERT_EQ(*got, *want) << Escaped(spec);
    ASSERT_EQ(SemanticsSpecToString(*got), ReferenceSpecToString(*want))
        << Escaped(spec);
  }
}

// Edge lines pinned outside the generator's luck.
TEST(ProtocolFuzz, ParserMatchesReferenceOnEdgeLines) {
  const std::vector<std::string> lines = {
      "", " ", "\t", "mine", "mine ", "mine\tmin_sup=2", "mine min_sup=zero",
      "mine algo,min_sup=5", "mine =min_sup=3", "mine min_sup==3",
      "mine semantics=window:w=10", "mine events=", "mine events=,",
      "mine events=,a,,b,", "mine budget=nan", "mine budget=-nan",
      "mine budget=0", "mine budget=4.9e-324", "mine budget=inf",
      "mine min_gap=4294967295", "mine min_gap=4294967296",
      "mine min_sup=18446744073709551615",
      "mine min_sup=18446744073709551616", "mine min_sup=5\r",
      std::string("mine min_sup=5\0", 15), "topk min_sup=3", "topk k=0",
      "extend", "extend 4294967294 A", "extend 4294967295 A", "extend x",
      "run threads=3", "run =threads=3", "run threads==3", "run threads=3=",
      "run threads", "trace", "trace last", "trace last 0", "trace last 2",
      "trace last 2 3", "trace first", "exit", "quit now", "stats x",
      "\xff", "mine \xff=1"};
  for (const std::string& line : lines) {
    EXPECT_EQ(Outcome(ParseServeCommand(line)), Outcome(ReferenceParse(line)))
        << Escaped(line);
  }
}

// ---------------------------------------------------------------------------
// The session

constexpr std::string_view kSentinel = "zz-sentinel";

bool StartsWithAny(std::string_view line,
                   std::initializer_list<std::string_view> prefixes) {
  for (const std::string_view p : prefixes) {
    if (line.substr(0, p.size()) == p) return true;
  }
  return false;
}

// A pattern line: "<support>\t<events>".
bool IsPatternLine(std::string_view line) {
  return !line.empty() && line.front() >= '0' && line.front() <= '9' &&
         line.find('\t') != std::string_view::npos;
}

// How many pattern lines a "result patterns=N ..." header announces.
uint64_t AnnouncedPatterns(std::string_view header) {
  uint64_t n = 0;
  const std::string_view rest = header.substr(header.find('=') + 1);
  EXPECT_TRUE(ParseUint64(rest.substr(0, rest.find(' ')), &n)) << header;
  return n;
}

// Checks that `lines` are exactly one response to the session line `line`.
void ExpectOneResponse(const std::string& line,
                       const std::vector<std::string>& lines) {
  const std::string_view trimmed = Trim(line);
  SCOPED_TRACE("line: " + Escaped(line));
  if (trimmed.empty() || trimmed.front() == '#') {
    EXPECT_TRUE(lines.empty());
    return;
  }
  ASSERT_FALSE(lines.empty());
  const std::string& head = lines.front();
  const Result<ServeCommand> parsed = ParseServeCommand(trimmed);
  if (StartsWithAny(head, {"result patterns="})) {
    ASSERT_TRUE(parsed.ok());
    const uint64_t shown = std::min<uint64_t>(AnnouncedPatterns(head),
                                              parsed->limit);
    ASSERT_EQ(lines.size(), 1 + shown);
    for (size_t i = 1; i < lines.size(); ++i) {
      EXPECT_TRUE(IsPatternLine(lines[i])) << lines[i];
    }
    return;
  }
  if (StartsWithAny(head, {"batch results="})) {
    // Each queued request answers "request i" and then an error line or a
    // result block of at most its announced rows.
    uint64_t requests = 0;
    ASSERT_TRUE(ParseUint64(head.substr(14), &requests)) << head;
    size_t at = 1;
    for (uint64_t i = 0; i < requests; ++i) {
      ASSERT_LT(at, lines.size());
      EXPECT_EQ(lines[at++], "request " + std::to_string(i));
      ASSERT_LT(at, lines.size());
      const std::string& sub = lines[at++];
      if (StartsWithAny(sub, {"error "})) continue;
      ASSERT_TRUE(StartsWithAny(sub, {"result patterns="})) << sub;
      uint64_t rows = 0;
      while (at < lines.size() && IsPatternLine(lines[at])) {
        ++rows;
        ++at;
      }
      EXPECT_LE(rows, AnnouncedPatterns(sub));
    }
    EXPECT_EQ(at, lines.size());
    return;
  }
  if (StartsWithAny(head, {"traces count="})) {
    uint64_t n = 0;
    ASSERT_TRUE(ParseUint64(head.substr(13), &n)) << head;
    ASSERT_EQ(lines.size(), 1 + n);
    return;
  }
  if (parsed.ok() && parsed->verb == ServeCommand::Verb::kMetrics &&
      !StartsWithAny(head, {"error "})) {
    for (const std::string& l : lines) {
      EXPECT_TRUE(StartsWithAny(l, {"#", "gsgrow_"})) << l;
    }
    return;
  }
  EXPECT_TRUE(StartsWithAny(head, {"error ", "ok ", "stats ", "queued ",
                                   "batch start", "bye"}))
      << head;
  EXPECT_EQ(lines.size(), 1u);
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t begin = 0;
  while (begin < text.size()) {
    const size_t end = text.find('\n', begin);
    EXPECT_NE(end, std::string::npos) << "unterminated response line";
    if (end == std::string::npos) break;
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

// A line the session fuzz may send: no append or extend (the corpus stays
// fixed, so every mine stays small), no quit (the script ends with one),
// and no request for more than 3 workers (threads=0 means one per
// hardware thread, also left out).
bool SessionSafe(const std::string& line) {
  const std::string_view trimmed = Trim(line);
  if (trimmed.substr(0, kSentinel.size()) == kSentinel) return false;
  const Result<ServeCommand> parsed = ParseServeCommand(trimmed);
  if (!parsed.ok()) return true;
  switch (parsed->verb) {
    case ServeCommand::Verb::kAppend:
    case ServeCommand::Verb::kExtend:
    case ServeCommand::Verb::kQuit:
      return false;
    case ServeCommand::Verb::kRun:
      return parsed->run_threads >= 1 && parsed->run_threads <= 3;
    case ServeCommand::Verb::kMine:
    case ServeCommand::Verb::kTopK:
      return parsed->request.options.num_threads >= 1 &&
             parsed->request.options.num_threads <= 3;
    default:
      return true;
  }
}

TEST(ProtocolFuzz, SessionAnswersEveryLine) {
  for (const uint64_t seed : {11u, 12u, 13u, 14u}) {
    LineGenerator gen(seed, /*session=*/true);
    std::vector<std::string> script;
    while (script.size() < 500) {
      std::string line = gen.Line();
      if (SessionSafe(line)) script.push_back(std::move(line));
    }
    script.push_back("quit");
    MiningService service;
    ASSERT_TRUE(service.Append({"A", "B", "C", "A", "B", "C"}).ok());
    ASSERT_TRUE(service.Append({"A", "C", "D", "B"}).ok());
    ASSERT_TRUE(service.Append({"B", "B", "D", "A", "C"}).ok());
    std::string input;
    for (const std::string& line : script) {
      input += line;
      input += '\n';
      input += kSentinel;
      input += '\n';
    }
    std::istringstream in(input);
    std::ostringstream out;
    RunServeSession(service, in, out);
    const std::vector<std::string> lines = Lines(out.str());
    // Enough lines must reach the miners for the run to mean anything.
    size_t results = 0;
    for (const std::string& l : lines) {
      if (l.rfind("result patterns=", 0) == 0) ++results;
    }
    EXPECT_GE(results, 50u) << "seed " << seed;

    // Split the output at the sentinel's answers: one segment per line.
    const std::string sentinel_answer =
        "error InvalidArgument: unknown verb '" + std::string(kSentinel) +
        "' (append, extend, mine, topk, batch, run, stats, metrics, trace, "
        "checkpoint, recover, quit)";
    size_t at = 0;
    bool ended = false;
    for (size_t i = 0; i < script.size() && !ended; ++i) {
      std::vector<std::string> segment;
      while (at < lines.size() && lines[at] != sentinel_answer) {
        segment.push_back(lines[at++]);
      }
      const Result<ServeCommand> parsed = ParseServeCommand(Trim(script[i]));
      if (parsed.ok() && parsed->verb == ServeCommand::Verb::kQuit) {
        // quit ends the session: an open batch's error, then "bye".
        ASSERT_FALSE(segment.empty());
        EXPECT_EQ(segment.back(), "bye");
        EXPECT_LE(segment.size(), 2u);
        EXPECT_EQ(at, lines.size());
        ended = true;
        break;
      }
      ASSERT_LT(at, lines.size())
          << "seed " << seed << ": no answer after line " << i << ": "
          << Escaped(script[i]);
      ++at;  // the sentinel's answer
      ExpectOneResponse(script[i], segment);
      if (HasFatalFailure()) return;
    }
    if (!ended) {
      // At the end of input only an open batch may still answer.
      EXPECT_LE(lines.size() - at, 1u);
      if (at < lines.size()) {
        EXPECT_EQ(lines[at].rfind("error InvalidArgument: batch not run", 0),
                  0u);
      }
    }
  }
}

}  // namespace
}  // namespace gsgrow
