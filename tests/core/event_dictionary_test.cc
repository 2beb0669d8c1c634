#include "core/event_dictionary.h"

#include <string>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"

#include "util/rng.h"
#include "test_util.h"

namespace gsgrow {
namespace {

TEST(EventDictionary, InternAssignsDenseIdsInFirstSeenOrder) {
  EventDictionary d;
  EXPECT_EQ(d.Intern("open"), 0u);
  EXPECT_EQ(d.Intern("close"), 1u);
  EXPECT_EQ(d.Intern("read"), 2u);
  EXPECT_EQ(d.size(), 3u);
}

TEST(EventDictionary, InternIsIdempotent) {
  EventDictionary d;
  EventId a = d.Intern("x");
  EventId b = d.Intern("x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(d.size(), 1u);
}

TEST(EventDictionary, LookupKnownAndUnknown) {
  EventDictionary d;
  d.Intern("a");
  EXPECT_EQ(d.Lookup("a"), 0u);
  EXPECT_EQ(d.Lookup("zz"), kNoEvent);
}

TEST(EventDictionary, NameRoundTrip) {
  EventDictionary d;
  EventId id = d.Intern("TxManager.begin");
  EXPECT_EQ(d.Name(id), "TxManager.begin");
}

TEST(EventDictionary, NameSynthesizesForUnknownIds) {
  EventDictionary d;
  EXPECT_EQ(d.Name(17), "e17");
  EXPECT_FALSE(d.Contains(17));
}

TEST(EventDictionary, EmptyDictionary) {
  EventDictionary d;
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(d.Lookup("anything"), kNoEvent);
}

// Property test against a std::unordered_map reference: ~20k names, so the
// table doubles about eleven times. Names span lengths 0..40 (both sides of
// the 8-byte hash word and the 15-byte short-string boundary), random bytes
// including NUL, and families that differ only in trailing NUL bytes.
// Intern, Lookup and Name must agree with the reference after every insert
// batch, for absent names too, and after copy and assignment.
TEST(EventDictionary, AgreesWithHashMapReferenceAcrossGrowth) {
  Rng rng(20261019);
  const auto random_name = [&rng] {
    std::string name(rng.UniformInt(41), '\0');
    for (char& c : name) c = static_cast<char>(rng.UniformInt(256));
    return name;
  };
  std::vector<std::string> pool;
  for (int i = 0; i < 16000; ++i) pool.push_back(random_name());
  for (int i = 0; i < 1000; ++i) {
    std::string base = random_name();
    for (int pad = 0; pad < 4; ++pad) {
      pool.push_back(base);
      base.push_back('\0');
    }
  }
  for (int i = 0; i < 500; ++i) pool.push_back(testing::NumberedName("e", i));

  EventDictionary d;
  std::unordered_map<std::string, EventId> reference;
  std::vector<std::string> names;  // reference id -> name
  const auto expect_agrees = [&](const EventDictionary& dict) {
    ASSERT_EQ(dict.size(), names.size());
    for (EventId id = 0; id < names.size(); ++id) {
      ASSERT_EQ(dict.Name(id), names[id]) << "id " << id;
      ASSERT_EQ(dict.Lookup(names[id]), id) << "id " << id;
    }
    for (int probe = 0; probe < 2000; ++probe) {
      const std::string name = random_name() + "#absent";
      ASSERT_EQ(dict.Lookup(name), kNoEvent);
    }
  };
  for (size_t i = 0; i < pool.size(); ++i) {
    auto [it, fresh] =
        reference.emplace(pool[i], static_cast<EventId>(names.size()));
    if (fresh) names.push_back(pool[i]);
    ASSERT_EQ(d.Intern(pool[i]), it->second) << "insert " << i;
    // Re-intern an earlier name now and then: its id must not move.
    if (rng.Bernoulli(0.2)) {
      const std::string& earlier = pool[rng.UniformInt(i + 1)];
      ASSERT_EQ(d.Intern(earlier), reference.at(earlier)) << "insert " << i;
    }
    if (i % 4096 == 0) expect_agrees(d);
  }
  expect_agrees(d);
  EXPECT_GT(names.size(), size_t{19000});

  // A copy and an assigned dictionary answer alike, and stay independent of
  // the original.
  const EventDictionary copy = d;
  EventDictionary assigned;
  assigned.Intern("placeholder");
  assigned = d;
  expect_agrees(copy);
  expect_agrees(assigned);
  EXPECT_EQ(d.Intern("only-in-original"), names.size());
  EXPECT_EQ(copy.Lookup("only-in-original"), kNoEvent);
  EXPECT_EQ(assigned.Lookup("only-in-original"), kNoEvent);
  EXPECT_EQ(assigned.Intern("only-in-assigned"), names.size());
  EXPECT_EQ(d.Lookup("only-in-assigned"), kNoEvent);
}

// 300k names carry about ten pairs of equal 32-bit hash tags (the birthday
// bound), so lookups must fall through the tag to the name comparison.
TEST(EventDictionary, NamesWithEqualTagsStayDistinct) {
  constexpr EventId kNames = 300000;
  EventDictionary d;
  for (EventId id = 0; id < kNames; ++id) {
    ASSERT_EQ(d.Intern(testing::NumberedName("k", id)), id);
  }
  ASSERT_EQ(d.size(), kNames);
  for (EventId id = 0; id < kNames; ++id) {
    ASSERT_EQ(d.Lookup(testing::NumberedName("k", id)), id);
  }
}

TEST(EventDictionary, TrailingNulBytesAreDistinctNames) {
  EventDictionary d;
  const std::string a("ab", 2);
  const std::string a0("ab\0", 3);
  const std::string a00("ab\0\0", 4);
  EXPECT_EQ(d.Intern(a0), 0u);
  EXPECT_EQ(d.Lookup(a), kNoEvent);
  EXPECT_EQ(d.Lookup(a00), kNoEvent);
  EXPECT_EQ(d.Intern(a), 1u);
  EXPECT_EQ(d.Intern(a00), 2u);
  EXPECT_EQ(d.Name(2), a00);
  EXPECT_EQ(d.Intern(""), 3u);
  EXPECT_EQ(d.Lookup(std::string(1, '\0')), kNoEvent);
}

}  // namespace
}  // namespace gsgrow
