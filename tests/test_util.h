// Shared helpers for the gsgrow test suite.

#ifndef GSGROW_TESTS_TEST_UTIL_H_
#define GSGROW_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "core/instance_growth.h"
#include "core/mining_result.h"
#include "core/pattern.h"
#include "core/pattern_table.h"
#include "core/sequence_database.h"
#include "util/rng.h"

namespace gsgrow::testing {

/// Pattern from a compact single-character string, resolved against the
/// database dictionary ("ACB" -> ids of "A","C","B").
inline Pattern MakePattern(const SequenceDatabase& db, const std::string& s) {
  std::vector<EventId> ids;
  for (char c : s) {
    EventId id = db.dictionary().Lookup(std::string(1, c));
    if (id == kNoEvent) {
      ADD_FAILURE() << "event '" << c << "' not in dictionary";
      return Pattern();
    }
    ids.push_back(id);
  }
  return Pattern(std::move(ids));
}

/// Full instance from paper-style 1-based (seq, landmark) notation.
inline FullInstance PaperInstance(SeqId seq_1based,
                                  std::vector<Position> landmark_1based) {
  FullInstance inst;
  inst.seq = seq_1based - 1;
  for (Position p : landmark_1based) inst.landmark.push_back(p - 1);
  return inst;
}

/// Compressed instance from paper-style 1-based (seq, first, last).
inline Instance PaperTriple(SeqId seq_1based, Position first_1based,
                            Position last_1based) {
  return Instance{seq_1based - 1, first_1based - 1, last_1based - 1};
}

/// Mining result as a canonical set of (compact pattern string, support).
inline std::set<std::pair<std::string, uint64_t>> AsSet(
    const EventDictionary& dictionary, const PatternTable& rows) {
  std::set<std::pair<std::string, uint64_t>> out;
  for (const PatternRow r : rows) {
    out.emplace(r.pattern().ToCompactString(dictionary), r.support);
  }
  return out;
}

inline std::set<std::pair<std::string, uint64_t>> AsSet(
    const SequenceDatabase& db, const PatternTable& rows) {
  return AsSet(db.dictionary(), rows);
}

/// One row for MakeTable.
struct RowSpec {
  Pattern pattern;
  uint64_t support = 0;
  SemanticsAnnotations annotations = {};
};

/// A table of the given rows, in order.
inline PatternTable MakeTable(std::initializer_list<RowSpec> rows) {
  PatternTable table;
  for (const RowSpec& row : rows) {
    table.Append(row.pattern.events(), row.support, row.annotations);
  }
  return table;
}

/// The canonical order of a collected answer (DESIGN.md §6): lexicographic
/// on the events, a proper prefix first, then ascending support.
inline bool CanonicalRowLess(const PatternRow& a, const PatternRow& b) {
  const auto [ai, bi] = std::mismatch(a.events.begin(), a.events.end(),
                                      b.events.begin(), b.events.end());
  if (ai != a.events.end() && bi != b.events.end()) return *ai < *bi;
  if (a.events.size() != b.events.size()) {
    return a.events.size() < b.events.size();
  }
  return a.support < b.support;
}

/// `table`'s rows reordered by `less` (a comparator over PatternRow).
template <typename Less>
PatternTable SortedRows(const PatternTable& table, Less less) {
  std::vector<PatternRow> rows(table.begin(), table.end());
  std::sort(rows.begin(), rows.end(), less);
  PatternTable out;
  for (const PatternRow& row : rows) out.Append(row);
  return out;
}

/// The first `n` rows of `table` (all of them when it has fewer).
inline PatternTable FirstRows(const PatternTable& table, size_t n) {
  PatternTable out;
  out.AppendRows(table, 0, std::min(n, table.size()));
  return out;
}

/// Random database for property tests: `num_seqs` sequences of length in
/// [min_len, max_len] over an alphabet of `alphabet` single-letter events.
inline SequenceDatabase RandomDatabase(Rng* rng, size_t num_seqs,
                                       size_t min_len, size_t max_len,
                                       size_t alphabet) {
  std::vector<std::string> rows;
  for (size_t i = 0; i < num_seqs; ++i) {
    size_t len = static_cast<size_t>(
        rng->UniformRange(static_cast<int64_t>(min_len),
                          static_cast<int64_t>(max_len)));
    std::string row;
    for (size_t j = 0; j < len; ++j) {
      row.push_back(static_cast<char>('A' + rng->UniformInt(alphabet)));
    }
    rows.push_back(std::move(row));
  }
  // Ensure the full alphabet is interned so MakePattern lookups never fail.
  std::string all;
  for (size_t a = 0; a < alphabet; ++a) all.push_back(static_cast<char>('A' + a));
  rows.push_back(all);
  return MakeDatabaseFromStrings(rows);
}

/// "<prefix><n>", built with += : gcc 12's -O3 -Wrestrict misfires on
/// `"literal" + std::to_string(...)`.
inline std::string NumberedName(const char* prefix, uint64_t n) {
  std::string name = prefix;
  name += std::to_string(n);
  return name;
}

}  // namespace gsgrow::testing

#endif  // GSGROW_TESTS_TEST_UTIL_H_
