#include "core/reference.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "util/logging.h"

namespace gsgrow {

namespace {

void EnumerateRec(const Sequence& s, const Pattern& p, size_t depth,
                  Position from, std::vector<Position>* current,
                  std::vector<std::vector<Position>>* out, size_t limit) {
  if (out->size() >= limit) return;
  if (depth == p.size()) {
    out->push_back(*current);
    return;
  }
  for (Position pos = from; pos < s.length(); ++pos) {
    if (s[pos] != p[depth]) continue;
    current->push_back(pos);
    EnumerateRec(s, p, depth + 1, pos + 1, current, out, limit);
    current->pop_back();
    if (out->size() >= limit) return;
  }
}

/// Unit-capacity max-flow on the layered occurrence graph via repeated BFS
/// augmentation (Edmonds-Karp). Node-disjointness within layers is enforced
/// by splitting each occurrence node into an in/out pair of capacity 1.
class LayeredFlow {
 public:
  explicit LayeredFlow(size_t node_count)
      : head_(2 * node_count + 2, -1) {}

  int Source() const { return static_cast<int>(head_.size()) - 2; }
  int Sink() const { return static_cast<int>(head_.size()) - 1; }
  int In(int node) const { return 2 * node; }
  int Out(int node) const { return 2 * node + 1; }

  void AddEdge(int from, int to, int capacity) {
    edges_.push_back({to, head_[from], capacity});
    head_[from] = static_cast<int>(edges_.size()) - 1;
    edges_.push_back({from, head_[to], 0});
    head_[to] = static_cast<int>(edges_.size()) - 1;
  }

  uint64_t MaxFlow() {
    uint64_t flow = 0;
    for (;;) {
      std::vector<int> parent_edge(head_.size(), -1);
      std::vector<bool> seen(head_.size(), false);
      std::queue<int> queue;
      queue.push(Source());
      seen[Source()] = true;
      while (!queue.empty() && !seen[Sink()]) {
        int u = queue.front();
        queue.pop();
        for (int eid = head_[u]; eid != -1; eid = edges_[eid].next) {
          const Edge& edge = edges_[eid];
          if (edge.capacity <= 0 || seen[edge.to]) continue;
          seen[edge.to] = true;
          parent_edge[edge.to] = eid;
          queue.push(edge.to);
        }
      }
      if (!seen[Sink()]) break;
      for (int v = Sink(); v != Source();) {
        int eid = parent_edge[v];
        edges_[eid].capacity -= 1;
        edges_[eid ^ 1].capacity += 1;
        v = edges_[eid ^ 1].to;
      }
      ++flow;
    }
    return flow;
  }

 private:
  struct Edge {
    int to;
    int next;
    int capacity;
  };
  std::vector<int> head_;
  std::vector<Edge> edges_;
};

}  // namespace

std::vector<std::vector<Position>> EnumerateLandmarks(const Sequence& sequence,
                                                      const Pattern& pattern,
                                                      size_t limit) {
  std::vector<std::vector<Position>> out;
  if (pattern.empty()) return out;
  std::vector<Position> current;
  EnumerateRec(sequence, pattern, 0, 0, &current, &out, limit);
  return out;
}

uint64_t LayeredFlowSupport(std::span<const std::span<const Position>> layers,
                            const LandmarkGapConstraint& gap) {
  const size_t m = layers.size();
  if (m == 0) return 0;
  for (const std::span<const Position> layer : layers) {
    if (layer.empty()) return 0;
  }
  // Assign node ids layer by layer.
  std::vector<size_t> layer_base(m + 1, 0);
  for (size_t j = 0; j < m; ++j) {
    layer_base[j + 1] = layer_base[j] + layers[j].size();
  }
  LayeredFlow flow(layer_base[m]);
  for (size_t j = 0; j < m; ++j) {
    for (size_t a = 0; a < layers[j].size(); ++a) {
      const int node = static_cast<int>(layer_base[j] + a);
      flow.AddEdge(flow.In(node), flow.Out(node), 1);
      if (j == 0) flow.AddEdge(flow.Source(), flow.In(node), 1);
      if (j == m - 1) flow.AddEdge(flow.Out(node), flow.Sink(), 1);
      if (j + 1 < m) {
        for (size_t b = 0; b < layers[j + 1].size(); ++b) {
          if (gap.Allows(layers[j][a], layers[j + 1][b])) {
            const int next = static_cast<int>(layer_base[j + 1] + b);
            flow.AddEdge(flow.Out(node), flow.In(next), 1);
          }
        }
      }
    }
  }
  return flow.MaxFlow();
}

uint64_t ReferenceSequenceSupport(const Sequence& sequence,
                                  const Pattern& pattern,
                                  const LandmarkGapConstraint& gap) {
  const size_t m = pattern.size();
  // Layer j: positions of pattern[j] in the sequence.
  std::vector<std::vector<Position>> positions(m);
  for (Position p = 0; p < sequence.length(); ++p) {
    for (size_t j = 0; j < m; ++j) {
      if (sequence[p] == pattern[j]) positions[j].push_back(p);
    }
  }
  const std::vector<std::span<const Position>> layers(positions.begin(),
                                                      positions.end());
  return LayeredFlowSupport(layers, gap);
}

uint64_t ReferenceSupport(const SequenceDatabase& db, const Pattern& pattern,
                          const LandmarkGapConstraint& gap) {
  uint64_t total = 0;
  for (const Sequence& s : db.sequences()) {
    total += ReferenceSequenceSupport(s, pattern, gap);
  }
  return total;
}

PatternTable ReferenceMineAll(const SequenceDatabase& db,
                              uint64_t min_support, size_t max_length) {
  GSGROW_CHECK(min_support >= 1);
  // (pattern, support) in generation order; the table is built sorted.
  std::vector<std::pair<Pattern, uint64_t>> found;
  // Frequent single events.
  std::map<EventId, uint64_t> event_counts;
  for (const Sequence& s : db.sequences()) {
    for (EventId e : s) event_counts[e]++;
  }
  std::vector<Pattern> frontier;
  for (const auto& [e, count] : event_counts) {
    if (count >= min_support) {
      frontier.push_back(Pattern({e}));
      found.emplace_back(frontier.back(), count);
    }
  }
  std::vector<EventId> alphabet;
  for (const auto& [e, count] : event_counts) {
    if (count >= min_support) alphabet.push_back(e);
  }
  // Breadth-first growth by appending events. The prefix of a frequent
  // pattern is frequent (Apriori), so append-growth from frequent patterns
  // reaches every frequent pattern.
  for (size_t len = 1; len < max_length && !frontier.empty(); ++len) {
    std::vector<Pattern> next_frontier;
    for (const Pattern& p : frontier) {
      for (EventId e : alphabet) {
        Pattern grown = p.Grow(e);
        uint64_t support = ReferenceSupport(db, grown);
        if (support >= min_support) {
          found.emplace_back(grown, support);
          next_frontier.push_back(std::move(grown));
        }
      }
    }
    frontier = std::move(next_frontier);
  }
  std::sort(found.begin(), found.end(), [](const auto& a, const auto& b) {
    if (a.first.size() != b.first.size()) {
      return a.first.size() < b.first.size();
    }
    return a.first < b.first;
  });
  PatternTable out;
  for (const auto& [pattern, support] : found) {
    out.Append(pattern.events(), support);
  }
  return out;
}

PatternTable FilterClosed(const PatternTable& all) {
  PatternTable closed;
  for (const PatternRow p : all) {
    bool is_closed = true;
    for (const PatternRow q : all) {
      if (q.events.size() <= p.events.size()) continue;
      if (q.support == p.support && IsSubsequence(p.events, q.events)) {
        is_closed = false;
        break;
      }
    }
    if (is_closed) closed.Append(p.events, p.support, p.annotations);
  }
  return closed;
}

}  // namespace gsgrow
