// The paper's evaluation in one binary: Figs. 2-6 (runtime and #patterns of
// GSgrow, "All", vs CloGSgrow, "Closed"), the §IV-B JBoss case study and the
// §IV-A comparison against BIDE / CloSpan / PrefixSpan.
//
//   bench_paper_figures [fig2|fig3|fig4|fig5|fig6|casestudy|baselines ...]
//
// Positional arguments select entries; with none, every entry runs. Each
// figure is one row of the table in PaperFigures(): a list of points, each
// a corpus and a threshold. A corpus is generated and indexed once and
// shared by every entry that names it. Exits 1 when a completed Closed cell
// reports more patterns than the completed All cell at the same point
// (closed patterns are a subset of all patterns), 2 on an unknown entry.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/bide.h"
#include "baselines/clospan.h"
#include "baselines/prefixspan.h"
#include "core/clogsgrow.h"
#include "core/gsgrow.h"
#include "datagen/clickstream_generator.h"
#include "datagen/models.h"
#include "datagen/quest_generator.h"
#include "harness.h"
#include "io/dataset_stats.h"
#include "postprocess/filters.h"
#include "util/table.h"

using namespace gsgrow;

namespace {

// A paper-scale count shrunk by the bench scale, never below `floor`.
uint32_t Scaled(double paper_value, double scale, double floor) {
  return static_cast<uint32_t>(std::max(floor, paper_value * scale));
}

struct CorpusSpec {
  std::string key;   // exact generator parameters: equal keys, equal data
  std::string name;  // display name; also the JSON dataset label
  std::function<SequenceDatabase()> generate;
};

// Quest D<paper_d>C<length>N10S<length>, as in Figs. 2, 5 and 6.
CorpusSpec Quest(double scale, uint32_t paper_d, uint32_t length) {
  QuestParams params;
  params.num_sequences = Scaled(paper_d, scale, 1);
  params.avg_sequence_length = length;
  params.num_events = Scaled(10000, scale, 64);
  params.avg_pattern_length = length;
  const std::string key = "quest " + std::to_string(params.num_sequences) +
                          " " + std::to_string(length) + " " +
                          std::to_string(params.num_events);
  return {key, params.Name(), [params] { return GenerateQuest(params); }};
}

CorpusSpec Gazelle(double scale) {
  ClickstreamParams params;
  params.num_sessions = Scaled(29369, scale, 100);
  params.num_pages = Scaled(1423, scale, 64);
  const std::string key = "gazelle " + std::to_string(params.num_sessions) +
                          " " + std::to_string(params.num_pages);
  return {key, "gazelle-like",
          [params] { return GenerateClickstream(params); }};
}

CorpusSpec Tcas(double scale) {
  const uint32_t traces = Scaled(1578, scale, 50);
  return {"tcas " + std::to_string(traces), "tcas-like",
          [traces] { return GenerateTcasTraces(traces, 13); }};
}

struct Corpus {
  Corpus(std::string corpus_name, SequenceDatabase data)
      : name(std::move(corpus_name)), db(std::move(data)), index(db) {}
  std::string name;
  SequenceDatabase db;
  InvertedIndex index;
};

// Generates and indexes each distinct corpus on first use.
class CorpusCache {
 public:
  const Corpus& Get(const CorpusSpec& spec) {
    std::unique_ptr<Corpus>& slot = corpora_[spec.key];
    if (slot == nullptr) {
      slot = std::make_unique<Corpus>(spec.name, spec.generate());
      std::printf("%s\n", FormatStatsReport(spec.name, slot->db).c_str());
    }
    return *slot;
  }

 private:
  std::map<std::string, std::unique_ptr<Corpus>> corpora_;
};

struct Point {
  std::vector<std::string> x;  // the figure's leading cells
  CorpusSpec corpus;
  uint64_t min_sup = 0;
};

struct Figure {
  std::string name;
  std::string title;
  std::string expectation;
  std::string json_label;  // JSON dataset label; empty = the corpus name
  std::vector<std::string> x_header;
  std::vector<Point> points;
};

std::vector<Figure> PaperFigures(double scale) {
  std::vector<Figure> figures;

  // Figs. 2 and 3: the paper's thresholds are small absolute values near
  // the mean event frequency (~10 occurrences/event on D5C20N10S20, ~60 per
  // page on Gazelle), which is preserved when sequences and alphabet scale
  // together, so they are used unscaled.
  Figure fig2{"fig2", "Figure 2: varying min_sup on D5C20N10S20",
              "All explodes below min_sup~7 (axis break at 3); Closed "
              "completes at every threshold with far fewer patterns",
              "fig2-synthetic", {"min_sup"}, {}};
  for (uint64_t min_sup : {3, 7, 8, 9, 10}) {
    fig2.points.push_back(
        {{std::to_string(min_sup)}, Quest(scale, 5000, 20), min_sup});
  }
  figures.push_back(std::move(fig2));

  Figure fig3{"fig3", "Figure 3: varying min_sup on Gazelle",
              "All hits its cut-off near min_sup~63; Closed reaches "
              "min_sup~8; closed pattern count orders of magnitude below All",
              "fig3-gazelle", {"min_sup"}, {}};
  for (uint64_t min_sup : {8, 63, 64, 65, 66}) {
    fig3.points.push_back({{std::to_string(min_sup)}, Gazelle(scale), min_sup});
  }
  figures.push_back(std::move(fig3));

  // Fig. 4: TCAS thresholds scale with the trace count, except the paper's
  // lowest possible threshold 1.
  Figure fig4{"fig4", "Figure 4: varying min_sup on TCAS",
              "All cannot terminate even at min_sup~886; Closed completes "
              "even at min_sup=1 (34 min at paper scale)",
              "fig4-tcas", {"paper min_sup", "effective"}, {}};
  for (uint64_t paper : {1, 886, 887, 888, 889}) {
    const uint64_t min_sup =
        paper == 1 ? 1 : bench::ScaledMinSup(paper, scale);
    fig4.points.push_back(
        {{std::to_string(paper), std::to_string(min_sup)}, Tcas(scale),
         min_sup});
  }
  figures.push_back(std::move(fig4));

  // Figs. 5 and 6: min_sup = 20 is absolute, as in the paper.
  Figure fig5{"fig5",
              "Figure 5: varying the number of sequences (C=S=50, N=10K, "
              "min_sup=20)",
              "All cannot terminate from ~15K sequences on; Closed completes "
              "even at 25K (~10 min at paper scale)",
              "", {"paper D", "sequences", "min_sup"}, {}};
  for (uint32_t paper_d : {5000, 10000, 15000, 20000, 25000}) {
    fig5.points.push_back({{std::to_string(paper_d / 1000) + "K",
                            std::to_string(Scaled(paper_d, scale, 1)), "20"},
                           Quest(scale, paper_d, 50), 20});
  }
  figures.push_back(std::move(fig5));

  Figure fig6{"fig6",
              "Figure 6: varying the average sequence length (D=10K, N=10K, "
              "min_sup=20)",
              "runtimes and pattern counts grow with length; All cannot "
              "terminate from avg length ~80; Closed completes at 100",
              "", {"C=S", "sequences", "min_sup"}, {}};
  for (uint32_t length : {20, 40, 60, 80, 100}) {
    fig6.points.push_back({{std::to_string(length),
                            std::to_string(Scaled(10000, scale, 1)), "20"},
                           Quest(scale, 10000, length), 20});
  }
  figures.push_back(std::move(fig6));
  return figures;
}

// Prints one figure's table; false when a completed Closed cell counts more
// patterns than the completed All cell at its point.
bool RunFigure(const Figure& figure, double budget, CorpusCache* corpora) {
  bench::PrintPreamble(figure.title, figure.expectation);
  std::vector<std::string> header = figure.x_header;
  header.insert(header.end(), {"All time", "All patterns", "Closed time",
                               "Closed patterns"});
  TextTable table(header);
  bool closed_within_all = true;
  for (const Point& point : figure.points) {
    const Corpus& corpus = corpora->Get(point.corpus);
    const std::string& label =
        figure.json_label.empty() ? corpus.name : figure.json_label;
    bench::Cell all = bench::RunAll(corpus.index, point.min_sup, budget, label);
    bench::Cell closed =
        bench::RunClosed(corpus.index, point.min_sup, budget, label);
    if (!all.truncated() && !closed.truncated() &&
        closed.patterns() > all.patterns()) {
      std::fprintf(stderr,
                   "error: %s %s min_sup=%llu: %llu closed > %llu all "
                   "patterns\n",
                   figure.name.c_str(), corpus.name.c_str(),
                   static_cast<unsigned long long>(point.min_sup),
                   static_cast<unsigned long long>(closed.patterns()),
                   static_cast<unsigned long long>(all.patterns()));
      closed_within_all = false;
    }
    std::vector<std::string> row = point.x;
    row.insert(row.end(), {bench::CellTime(all), bench::CellCount(all),
                           bench::CellTime(closed), bench::CellCount(closed)});
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
  return closed_within_all;
}

// §IV-B. Paper numbers (28 traces, 64 events, avg 91, max 125; min_sup =
// 18): CloGSgrow completes in ~5 minutes with 6070 closed patterns; GSgrow
// does not terminate within 8 hours; density>40% + maximality + ranking
// leaves 94 patterns; the longest has length 66 and spans 6 semantic
// blocks; the most frequent 2-event pattern is Lock -> Unlock.
void RunCaseStudy() {
  const double budget = std::max(bench::BudgetSeconds() * 6, 30.0);
  bench::PrintPreamble(
      "Case study: JBoss transaction component (min_sup=18)",
      "6070 closed patterns in ~5 min; mining-all does not terminate; 94 "
      "patterns after post-processing; longest length 66; top 2-event "
      "behavior Lock->Unlock");

  SequenceDatabase db = GenerateJBossTraces();
  std::printf("%s\n", FormatStatsReport("jboss-like traces", db).c_str());
  InvertedIndex index(db);

  MinerOptions options;
  options.min_support = 18;
  options.time_budget_seconds = budget;
  MiningResult closed = MineClosedFrequent(index, options);

  // Mining-all at the same threshold: reproduce the cut-off with a short
  // budget (the paper aborted after 8 hours).
  bench::Cell all =
      bench::RunAll(index, 18, bench::BudgetSeconds(), "jboss-like(28)");

  const PatternTable report = CaseStudyPipeline(closed.patterns);

  TextTable table({"quantity", "measured", "paper"});
  const bench::Cell closed_cell = bench::ToCell(closed);
  table.AddRow({"closed patterns", bench::CellCount(closed_cell), "6070"});
  table.AddRow({"closed mining time", bench::CellTime(closed_cell), "~5 min"});
  table.AddRow({"mining-all", bench::CellCount(all), "does not terminate"});
  table.AddRow(
      {"after density+maximality", std::to_string(report.size()), "94"});
  if (!report.empty()) {
    table.AddRow({"longest pattern length",
                  std::to_string(report.events(0).size()), "66"});
  }

  MinerOptions two_event;
  two_event.min_support = 18;
  two_event.max_pattern_length = 2;
  two_event.time_budget_seconds = budget;
  MiningResult pairs = MineAllFrequent(index, two_event);
  const PatternTable& found = pairs.patterns;
  size_t best = found.size();
  for (size_t i = 0; i < found.size(); ++i) {
    if (found.events(i).size() != 2) continue;
    if (best == found.size() || found.support(i) > found.support(best)) {
      best = i;
    }
  }
  if (best < found.size()) {
    table.AddRow({"top 2-event pattern",
                  found[best].pattern().ToString(db.dictionary()) +
                      " (sup " + std::to_string(found.support(best)) + ")",
                  "Lock -> Unlock"});
  }
  std::printf("%s", table.ToString().c_str());

  if (!report.empty()) {
    const std::span<const EventId> longest = report.events(0);
    std::printf("\nlongest mined behavior starts: %s ... ends: %s\n",
                db.dictionary().Name(longest.front()).c_str(),
                db.dictionary().Name(longest.back()).c_str());
  }
  std::printf("\n");
}

// "1.23 s (45 pat.)" for one mining run.
std::string TimeAndCount(const bench::Cell& cell) {
  return bench::CellTime(cell) + " (" + bench::CellCount(cell) + " pat.)";
}

// §IV-A (qualitative): "slightly slower than BIDE but faster than CloSpan
// and PrefixSpan on D5C20N10S20; slower than all three on Gazelle; faster
// than PrefixSpan on TCAS", while solving a strictly harder problem
// (repetitions within sequences are counted and returned).
void RunBaselines(double scale, double budget, CorpusCache* corpora) {
  bench::PrintPreamble(
      "Baseline comparison: CloGSgrow vs BIDE / CloSpan / PrefixSpan",
      "CloGSgrow ~BIDE-class on the synthetic set, slower on Gazelle, "
      "faster than PrefixSpan on TCAS, while solving a harder problem");

  const std::vector<std::pair<CorpusSpec, uint64_t>> datasets = {
      {Quest(scale, 5000, 20), bench::ScaledMinSup(10, scale)},
      {Gazelle(scale), bench::ScaledMinSup(66, scale)},
      {Tcas(scale), bench::ScaledMinSup(889, scale)}};

  TextTable table({"dataset", "min_sup", "CloGSgrow (closed, repetitive)",
                   "BIDE (closed)", "CloSpan (closed)", "PrefixSpan (all)"});
  for (const auto& [spec, min_sup] : datasets) {
    const Corpus& corpus = corpora->Get(spec);
    bench::Cell ours =
        bench::RunClosed(corpus.index, min_sup, budget, corpus.name);

    BideOptions bide_options;
    bide_options.min_support = min_sup;
    bide_options.time_budget_seconds = budget;
    SequentialMinerOptions seq_options;
    seq_options.min_support = min_sup;
    seq_options.time_budget_seconds = budget;
    // PrefixSpan mines ALL patterns; cap the result set so the comparison
    // measures search speed, not result materialization.
    SequentialMinerOptions ps_options = seq_options;
    ps_options.max_patterns = 5'000'000;

    table.AddRow(
        {corpus.name, std::to_string(min_sup), TimeAndCount(ours),
         TimeAndCount(bench::ToCell(MineBide(corpus.db, bide_options))),
         TimeAndCount(bench::ToCell(MineCloSpan(corpus.db, seq_options))),
         TimeAndCount(bench::ToCell(MinePrefixSpan(corpus.db, ps_options)))});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nnote: the baselines count each sequence once (sequence-count "
      "support); CloGSgrow additionally counts repetitions within each "
      "sequence.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::Scale();
  const double budget = bench::BudgetSeconds();
  const std::vector<Figure> figures = PaperFigures(scale);

  std::vector<std::string> entries;
  for (const Figure& figure : figures) entries.push_back(figure.name);
  entries.push_back("casestudy");
  entries.push_back("baselines");

  std::set<std::string> selected(argv + 1, argv + argc);
  for (const std::string& name : selected) {
    if (std::find(entries.begin(), entries.end(), name) == entries.end()) {
      std::string known;
      for (const std::string& entry : entries) known += " " + entry;
      std::fprintf(stderr, "error: unknown entry '%s'; entries:%s\n",
                   name.c_str(), known.c_str());
      return 2;
    }
  }
  const auto runs = [&](const std::string& name) {
    return selected.empty() || selected.count(name) > 0;
  };

  CorpusCache corpora;
  bool ok = true;
  for (const Figure& figure : figures) {
    if (runs(figure.name)) ok = RunFigure(figure, budget, &corpora) && ok;
  }
  if (runs("casestudy")) RunCaseStudy();
  if (runs("baselines")) RunBaselines(scale, budget, &corpora);
  return ok ? 0 : 1;
}
