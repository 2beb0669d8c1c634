#include "serve/serve_session.h"

#include <memory>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "io/request_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace gsgrow {

namespace {

// Pre-registered handles (DESIGN.md §13). The stage histograms join the
// family the service registers — obs registration is idempotent per
// (name, label) — so session-side parse/serialize spans and service-side
// snapshot/mine/cache spans land in one exposition family.
struct SessionMetrics {
  obs::Histogram* parse_us;
  obs::Histogram* serialize_us;
  obs::Counter* rejected_unknown_verb;
  obs::Counter* rejected_bad_argument;
  obs::Counter* rejected_not_found;
  obs::Counter* rejected_out_of_range;
  obs::Counter* rejected_other;
};

SessionMetrics MakeSessionMetrics() {
  SessionMetrics m;
  const char* stage_help = "Per-stage request latency in microseconds";
  m.parse_us = GSGROW_METRIC_HISTOGRAM_LABELED("gsgrow_request_stage_us",
                                               stage_help, "stage", "parse");
  m.serialize_us = GSGROW_METRIC_HISTOGRAM_LABELED(
      "gsgrow_request_stage_us", stage_help, "stage", "serialize");
  const char* rejected_help =
      "Commands answered with an error line, by failure kind";
  m.rejected_unknown_verb = GSGROW_METRIC_COUNTER_LABELED(
      "gsgrow_requests_rejected_total", rejected_help, "kind", "unknown_verb");
  m.rejected_bad_argument = GSGROW_METRIC_COUNTER_LABELED(
      "gsgrow_requests_rejected_total", rejected_help, "kind", "bad_argument");
  m.rejected_not_found = GSGROW_METRIC_COUNTER_LABELED(
      "gsgrow_requests_rejected_total", rejected_help, "kind", "not_found");
  m.rejected_out_of_range = GSGROW_METRIC_COUNTER_LABELED(
      "gsgrow_requests_rejected_total", rejected_help, "kind", "out_of_range");
  m.rejected_other = GSGROW_METRIC_COUNTER_LABELED(
      "gsgrow_requests_rejected_total", rejected_help, "kind", "other");
  return m;
}

SessionMetrics& Metrics() {
  static SessionMetrics metrics = MakeSessionMetrics();
  return metrics;
}

// Maps a failed command to its rejection-kind counter. Parse failures are
// all InvalidArgument, so the unknown-verb case is told apart by the
// message prefix ParseServeCommand emits.
obs::Counter* RejectedCounter(const Status& status) {
  if (status.code() == StatusCode::kInvalidArgument &&
      status.message().rfind("unknown verb", 0) == 0) {
    return Metrics().rejected_unknown_verb;
  }
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return Metrics().rejected_bad_argument;
    case StatusCode::kNotFound:
      return Metrics().rejected_not_found;
    case StatusCode::kOutOfRange:
      return Metrics().rejected_out_of_range;
    default:
      return Metrics().rejected_other;
  }
}

// How ReadRequestLine ended.
enum class LineRead { kLine, kTooLong, kEnd };

// Reads the next line of `in` into *line without its '\n', as std::getline
// does, but never holds more than kMaxRequestLineBytes of it: the rest of a
// longer line is consumed up to its newline without being kept, and the
// answer is kTooLong with *line cleared. *length is the line's full length.
// kEnd means the input ended before another line began. Like getline it
// reads through a sentry, which flushes the stream tied to `in` (std::cin's
// is std::cout) so every answer reaches an interactive client before the
// session waits for the next line, and it sets eofbit (and failbit on kEnd)
// when the input ends.
LineRead ReadRequestLine(std::istream& in, std::string* line,
                         size_t* length) {
  using Traits = std::char_traits<char>;
  line->clear();
  const std::istream::sentry sentry(in, /*noskipws=*/true);
  if (!sentry) return LineRead::kEnd;
  std::streambuf* buf = in.rdbuf();
  size_t n = 0;
  for (int c = buf->sbumpc(); c != '\n'; c = buf->sbumpc()) {
    if (Traits::eq_int_type(c, Traits::eof())) {
      if (n == 0) {
        in.setstate(std::ios::eofbit | std::ios::failbit);
        return LineRead::kEnd;
      }
      in.setstate(std::ios::eofbit);
      break;
    }
    if (n < kMaxRequestLineBytes) {
      line->push_back(Traits::to_char_type(c));
    } else if (n == kMaxRequestLineBytes) {
      line->clear();
      line->shrink_to_fit();
    }
    ++n;
  }
  *length = n;
  return n > kMaxRequestLineBytes ? LineRead::kTooLong : LineRead::kLine;
}

}  // namespace

int RunServeSession(MiningService& service, std::istream& in,
                    std::ostream& out) {
  int errors = 0;
  // Batch mode: between `batch` and `run`, mine/topk commands are queued
  // instead of executed; `run` executes them all against ONE shared
  // snapshot (MiningService::ExecuteBatch) and prints the responses in
  // submission order.
  bool batching = false;
  std::vector<MineRequest> batch;
  std::vector<size_t> batch_limits;

  const auto fail = [&](const Status& status) {
    out << "error " << status.ToString() << "\n";
    RejectedCounter(status)->Increment();
    ++errors;
  };
  // A batch still open when the session ends never ran: say so, so a
  // scripted caller does not mistake the missing results for success.
  const auto fail_open_batch = [&] {
    if (!batching) return;
    fail(Status::InvalidArgument("batch not run (" +
                                 std::to_string(batch.size()) + " queued)"));
  };

  std::string line;
  size_t length = 0;
  for (LineRead read = ReadRequestLine(in, &line, &length);
       read != LineRead::kEnd;
       read = ReadRequestLine(in, &line, &length)) {
    if (read == LineRead::kTooLong) {
      fail(Status::InvalidArgument(
          "request line of " + std::to_string(length) +
          " bytes exceeds the " + std::to_string(kMaxRequestLineBytes) +
          "-byte limit"));
      continue;
    }
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const WallTimer request_timer;
    obs::RequestTrace trace;
    obs::StageTimer parse_span(&trace, obs::Stage::kParse, Metrics().parse_us);
    Result<ServeCommand> parsed = ParseServeCommand(trimmed);
    parse_span.Stop();
    if (!parsed.ok()) {
      fail(parsed.status());
      continue;
    }
    ServeCommand& command = *parsed;
    if (batching && command.verb != ServeCommand::Verb::kMine &&
        command.verb != ServeCommand::Verb::kTopK &&
        command.verb != ServeCommand::Verb::kRun &&
        command.verb != ServeCommand::Verb::kQuit) {
      fail(Status::InvalidArgument(
          "only mine/topk/run are allowed inside a batch"));
      continue;
    }
    switch (command.verb) {
      case ServeCommand::Verb::kAppend: {
        trace.verb = "append";
        const Result<SeqId> seq = service.Append(command.events, &trace);
        if (!seq.ok()) {
          fail(seq.status());
          break;
        }
        {
          obs::StageTimer serialize_span(&trace, obs::Stage::kSerialize,
                                         Metrics().serialize_us);
          out << "ok seq=" << *seq << " len=" << command.events.size()
              << "\n";
        }
        trace.ok = true;
        trace.total_us = request_timer.ElapsedMicros();
        service.RecordRequestTrace(std::move(trace));
        break;
      }
      case ServeCommand::Verb::kExtend: {
        trace.verb = "extend";
        Status st = service.AppendTo(command.seq, command.events, &trace);
        if (!st.ok()) {
          fail(st);
          break;
        }
        {
          obs::StageTimer serialize_span(&trace, obs::Stage::kSerialize,
                                         Metrics().serialize_us);
          out << "ok seq=" << command.seq
              << " appended=" << command.events.size() << "\n";
        }
        trace.ok = true;
        trace.total_us = request_timer.ElapsedMicros();
        service.RecordRequestTrace(std::move(trace));
        break;
      }
      case ServeCommand::Verb::kMine:
      case ServeCommand::Verb::kTopK: {
        if (batching) {
          batch.push_back(std::move(command.request));
          batch_limits.push_back(command.limit);
          out << "queued " << (batch.size() - 1) << "\n";
          break;
        }
        std::shared_ptr<const ServiceSnapshot> snapshot;
        const MineResponse response =
            service.Execute(command.request, &snapshot, &trace);
        {
          obs::StageTimer serialize_span(&trace, obs::Stage::kSerialize,
                                         Metrics().serialize_us);
          WriteMineResponse(response, snapshot->db->dictionary(),
                            command.limit, out);
        }
        if (!response.status.ok()) {
          RejectedCounter(response.status)->Increment();
          ++errors;
        }
        trace.total_us = request_timer.ElapsedMicros();
        service.RecordRequestTrace(std::move(trace));
        break;
      }
      case ServeCommand::Verb::kBatch: {
        if (batching) {
          fail(Status::InvalidArgument("already in a batch"));
          break;
        }
        batching = true;
        out << "batch start\n";
        break;
      }
      case ServeCommand::Verb::kRun: {
        if (!batching) {
          fail(Status::InvalidArgument("run outside a batch"));
          break;
        }
        std::shared_ptr<const ServiceSnapshot> snapshot;
        const std::vector<MineResponse> responses =
            service.ExecuteBatch(batch, command.run_threads, &snapshot);
        out << "batch results=" << responses.size() << "\n";
        for (size_t i = 0; i < responses.size(); ++i) {
          out << "request " << i << "\n";
          WriteMineResponse(responses[i], snapshot->db->dictionary(),
                            batch_limits[i], out);
          if (!responses[i].status.ok()) {
            RejectedCounter(responses[i].status)->Increment();
            ++errors;
          }
        }
        batching = false;
        batch.clear();
        batch_limits.clear();
        break;
      }
      case ServeCommand::Verb::kStats: {
        out << FormatServiceStats(service.Stats()) << "\n";
        break;
      }
      case ServeCommand::Verb::kMetrics: {
        out << obs::MetricRegistry::Global().ExpositionText();
        break;
      }
      case ServeCommand::Verb::kTrace: {
        const std::vector<obs::RequestTrace> recent =
            service.traces().Recent(command.trace_n);
        out << "traces count=" << recent.size() << "\n";
        for (const obs::RequestTrace& t : recent) {
          out << obs::FormatRequestTrace(t) << "\n";
        }
        break;
      }
      case ServeCommand::Verb::kCheckpoint: {
        const Status st = service.Checkpoint();
        if (!st.ok()) {
          fail(st);
          break;
        }
        out << "ok checkpoint epoch=" << service.Stats().epoch << "\n";
        break;
      }
      case ServeCommand::Verb::kRecover: {
        if (!service.durable()) {
          fail(Status::InvalidArgument("recover on a non-durable service"));
          break;
        }
        out << FormatRecoveryInfo(service.recovery_info()) << "\n";
        break;
      }
      case ServeCommand::Verb::kQuit: {
        fail_open_batch();
        out << "bye\n";
        return errors;
      }
    }
  }
  fail_open_batch();
  return errors;
}

}  // namespace gsgrow
