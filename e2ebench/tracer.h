// In-memory span recorder for the traced benchmark pass.
//
// The benchmark wraps each call it makes into a module's public functions in
// a span named "<layer>.<call>" (io.parse, serve.execute, persist.checkpoint,
// core.mine, ...). Spans nest through an explicit stack, carry the id of the
// request they belong to, and stay in memory until the run ends, when
// WriteJsonl dumps them and SelfTimeByLayer attributes the time. Nothing here
// reaches into src/: the program under test is traced only from outside.
//
// Single-threaded by design: the timed loops are single-client, and the
// verification threads that run after them are never traced.

#ifndef GSGROW_E2EBENCH_TRACER_H_
#define GSGROW_E2EBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

struct Span {
  const char* name = "";  // string literal, "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the span vector; -1 for a root
  uint64_t request_id = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and costs one branch per scope.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII span: opened on construction, closed by End() or the destructor.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request_id)
        : tracer_(tracer->enabled_ ? tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->Open(name, request_id);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { End(); }

    void End() {
      if (tracer_ != nullptr) tracer_->Close(index_);
      tracer_ = nullptr;
    }

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
  };

  /// Self time per layer in nanoseconds over the span trees rooted in a
  /// span named `root`: each span's duration minus the time its direct
  /// children cover, summed by the name's prefix before the first '.'
  /// (undotted names count as layer "bench").
  std::map<std::string, int64_t> SelfTimeByLayer(std::string_view root) const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    std::vector<size_t> root_of(spans_.size(), 0);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      root_of[i] = s.parent >= 0 ? root_of[s.parent] : i;
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, int64_t> by_layer;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[root_of[i]].name != root) continue;
      const std::string_view name = spans_[i].name;
      const size_t dot = name.find('.');
      const std::string layer = dot == std::string_view::npos
                                    ? "bench"
                                    : std::string(name.substr(0, dot));
      by_layer[layer] += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    }
    return by_layer;
  }

  /// One JSON object per line: name, start/end (ns since the first span),
  /// parent index and request id. Returns false when the file cannot be
  /// written.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                   i, s.name, static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request_id));
    }
    return std::fclose(f) == 0;
  }

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  int64_t Open(const char* name, uint64_t request_id) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request_id = request_id;
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int64_t>(spans_.size() - 1));
    return open_.back();
  }

  void Close(int64_t index) {
    spans_[index].end_ns = NowNs();
    // Scopes close in LIFO order; pop this span and anything left open
    // inside it.
    while (!open_.empty() && open_.back() >= index) open_.pop_back();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

}  // namespace e2ebench

#endif  // GSGROW_E2EBENCH_TRACER_H_
