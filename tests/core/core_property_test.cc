// Randomized property tests for the mining core, parameterized over seeds
// and support thresholds (TEST_P sweeps).
//
// The oracle is the flow-based reference implementation (core/reference.h),
// which shares no code with the greedy instance-growth machinery.

#include <map>
#include <set>

#include "gtest/gtest.h"

#include "core/clogsgrow.h"
#include "core/gsgrow.h"
#include "core/instance_growth.h"
#include "core/reference.h"
#include "test_util.h"

namespace gsgrow {
namespace {

using testing::AsSet;
using testing::RandomDatabase;

struct PropertyParam {
  uint64_t seed;
  uint64_t min_sup;
  size_t num_seqs;
  size_t max_len;
  size_t alphabet;
};

std::ostream& operator<<(std::ostream& os, const PropertyParam& p) {
  return os << "seed" << p.seed << "_minsup" << p.min_sup << "_seqs"
            << p.num_seqs << "_len" << p.max_len << "_alpha" << p.alphabet;
}

class MiningProperty : public ::testing::TestWithParam<PropertyParam> {
 protected:
  SequenceDatabase MakeDb() {
    Rng rng(GetParam().seed);
    return RandomDatabase(&rng, GetParam().num_seqs, 1, GetParam().max_len,
                          GetParam().alphabet);
  }
};

// sup(P) computed by greedy instance growth equals the max-flow oracle for
// every frequent pattern and for a sample of infrequent ones.
TEST_P(MiningProperty, SupportMatchesFlowOracle) {
  SequenceDatabase db = MakeDb();
  InvertedIndex index(db);
  MinerOptions options;
  options.min_support = GetParam().min_sup;
  MiningResult all = MineAllFrequent(index, options);
  for (const PatternRow r : all.patterns) {
    EXPECT_EQ(r.support, ReferenceSupport(db, r.pattern()))
        << r.pattern().ToCompactString(db.dictionary());
  }
  // Also probe random patterns (frequent or not).
  Rng rng(GetParam().seed ^ 0xabcdef);
  for (int i = 0; i < 20; ++i) {
    size_t len = 1 + rng.UniformInt(4);
    std::vector<EventId> events;
    for (size_t j = 0; j < len; ++j) {
      events.push_back(
          static_cast<EventId>(rng.UniformInt(GetParam().alphabet)));
    }
    Pattern p(events);
    EXPECT_EQ(ComputeSupport(index, p), ReferenceSupport(db, p))
        << p.ToCompactString(db.dictionary());
  }
}

// GSgrow finds exactly the reference frequent-pattern set.
TEST_P(MiningProperty, MineAllMatchesReference) {
  SequenceDatabase db = MakeDb();
  MinerOptions options;
  options.min_support = GetParam().min_sup;
  MiningResult all = MineAllFrequent(db, options);
  EXPECT_EQ(AsSet(db, all.patterns),
            AsSet(db, ReferenceMineAll(db, GetParam().min_sup)));
}

// CloGSgrow finds exactly the closure-filtered reference set.
TEST_P(MiningProperty, MineClosedMatchesReference) {
  SequenceDatabase db = MakeDb();
  MinerOptions options;
  options.min_support = GetParam().min_sup;
  MiningResult closed = MineClosedFrequent(db, options);
  EXPECT_EQ(
      AsSet(db, closed.patterns),
      AsSet(db, FilterClosed(ReferenceMineAll(db, GetParam().min_sup))));
}

// Apriori (Lemma 1): growing any frequent pattern by one event never
// increases support.
TEST_P(MiningProperty, AprioriMonotonicity) {
  SequenceDatabase db = MakeDb();
  InvertedIndex index(db);
  MinerOptions options;
  options.min_support = GetParam().min_sup;
  MiningResult all = MineAllFrequent(index, options);
  for (const PatternRow r : all.patterns) {
    if (r.events.size() > 3) continue;  // bound the work
    for (size_t gap = 0; gap <= r.events.size(); ++gap) {
      for (EventId e = 0; e < GetParam().alphabet; ++e) {
        Pattern super = r.pattern().InsertAt(gap, e);
        EXPECT_LE(ComputeSupport(index, super), r.support);
      }
    }
  }
}

// The computed support sets are non-redundant (Definition 2.4): within one
// sequence no two instances share a position at the same pattern index.
TEST_P(MiningProperty, SupportSetsAreNonRedundant) {
  SequenceDatabase db = MakeDb();
  InvertedIndex index(db);
  MinerOptions options;
  options.min_support = GetParam().min_sup;
  MiningResult all = MineAllFrequent(index, options);
  for (const PatternRow r : all.patterns) {
    std::vector<FullInstance> set = ComputeFullSupportSet(index, r.pattern());
    ASSERT_EQ(set.size(), r.support);
    for (size_t a = 0; a < set.size(); ++a) {
      for (size_t b = a + 1; b < set.size(); ++b) {
        if (set[a].seq != set[b].seq) continue;
        for (size_t j = 0; j < set[a].landmark.size(); ++j) {
          EXPECT_NE(set[a].landmark[j], set[b].landmark[j])
              << r.pattern().ToCompactString(db.dictionary());
        }
      }
    }
  }
}

// Leftmostness (Definition 3.2) spot check: no other support set (obtained
// by the oracle) can precede the greedy one coordinate-wise. We verify a
// weaker but telling invariant: the greedy set's landmarks are
// lexicographically minimal among all same-size non-redundant sets obtained
// by shifting any single instance left.
TEST_P(MiningProperty, SupportSetsSortedRightShift) {
  SequenceDatabase db = MakeDb();
  InvertedIndex index(db);
  MinerOptions options;
  options.min_support = GetParam().min_sup;
  MiningResult all = MineAllFrequent(index, options);
  for (const PatternRow r : all.patterns) {
    SupportSet set = ComputeSupportSet(index, r.pattern());
    EXPECT_TRUE(IsRightShiftSorted(set));
  }
}

// Repetitive support decomposes per sequence: sup(P) restricted to each
// sequence equals the flow oracle on that sequence alone.
TEST_P(MiningProperty, PerSequenceDecomposition) {
  SequenceDatabase db = MakeDb();
  InvertedIndex index(db);
  MinerOptions options;
  options.min_support = GetParam().min_sup;
  MiningResult all = MineAllFrequent(index, options);
  for (const PatternRow r : all.patterns) {
    if (r.events.size() > 3) continue;
    std::vector<uint32_t> per_seq = PerSequenceSupport(index, r.pattern());
    for (SeqId i = 0; i < db.size(); ++i) {
      EXPECT_EQ(per_seq[i], ReferenceSequenceSupport(db[i], r.pattern()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MiningProperty,
    ::testing::Values(
        PropertyParam{1, 1, 2, 8, 2}, PropertyParam{2, 2, 2, 8, 2},
        PropertyParam{3, 2, 3, 10, 3}, PropertyParam{4, 3, 3, 10, 3},
        PropertyParam{5, 2, 4, 6, 4}, PropertyParam{6, 1, 1, 12, 2},
        PropertyParam{7, 3, 4, 9, 3}, PropertyParam{8, 4, 5, 8, 2},
        PropertyParam{9, 2, 2, 12, 3}, PropertyParam{10, 5, 5, 10, 2},
        PropertyParam{11, 1, 3, 7, 4}, PropertyParam{12, 3, 2, 14, 2},
        PropertyParam{13, 2, 6, 6, 2}, PropertyParam{14, 4, 3, 12, 2},
        PropertyParam{15, 1, 2, 10, 5}, PropertyParam{16, 6, 6, 9, 2},
        PropertyParam{17, 2, 5, 7, 3}, PropertyParam{18, 3, 1, 15, 3},
        PropertyParam{19, 5, 4, 11, 2}, PropertyParam{20, 2, 3, 9, 4}),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

}  // namespace
}  // namespace gsgrow
