#include "util/arena.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "core/types.h"

#if GSGROW_HAS_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace gsgrow {
namespace {

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  std::vector<std::pair<char*, size_t>> allocs;
  for (size_t i = 0; i < 200; ++i) {
    const size_t bytes = 1 + (i * 7) % 100;
    const size_t alignment = size_t{1} << (i % 4);  // 1, 2, 4, 8
    char* p = static_cast<char*>(arena.Allocate(bytes, alignment));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignment, 0u);
    // Writable without clobbering any earlier allocation.
    std::memset(p, static_cast<int>(i), bytes);
    allocs.emplace_back(p, bytes);
  }
  for (size_t i = 0; i < allocs.size(); ++i) {
    for (size_t b = 0; b < allocs[i].second; ++b) {
      ASSERT_EQ(static_cast<unsigned char>(allocs[i].first[b]),
                static_cast<unsigned char>(i))
          << "allocation " << i << " byte " << b;
    }
  }
}

TEST(Arena, CopyArrayPreservesContentAcrossChunkBoundaries) {
  // Room for the first 10 copies; each later one takes a chunk of its own.
  size_t capacity = 0;
  for (size_t i = 0; i < 10; ++i) {
    capacity += Arena::ArrayFootprint<Position>(1000 + i);
  }
  Arena arena(capacity);
  std::vector<std::span<const Position>> copies;
  std::vector<std::vector<Position>> originals;
  size_t footprints = 0;
  for (size_t i = 0; i < 50; ++i) {
    std::vector<Position> v(1000 + i);
    std::iota(v.begin(), v.end(), static_cast<Position>(i));
    copies.push_back(arena.CopyArray(std::span<const Position>(v)));
    footprints += Arena::ArrayFootprint<Position>(v.size());
    originals.push_back(std::move(v));
  }
  for (size_t i = 0; i < copies.size(); ++i) {
    ASSERT_EQ(copies[i].size(), originals[i].size());
    EXPECT_TRUE(std::equal(copies[i].begin(), copies[i].end(),
                           originals[i].begin()));
  }
  // Overflow chunks are exactly as large as the allocation they hold.
  EXPECT_EQ(arena.bytes_used(), footprints);
  EXPECT_EQ(arena.bytes_reserved(), footprints);
}

TEST(Arena, EmptyAndOversizeRequests) {
  Arena arena(64);
  EXPECT_TRUE(arena.AllocateArray<Position>(0).empty());
  EXPECT_TRUE(arena.CopyArray(std::span<const Position>{}).empty());
  EXPECT_EQ(arena.bytes_used(), 0u);
  // A request larger than the arena's capacity still succeeds in one piece.
  const size_t big = size_t{4} * 1024 * 1024 + 1024;
  char* p = static_cast<char*>(arena.Allocate(big, 8));
  std::memset(p, 0xAB, big);
  EXPECT_GE(arena.bytes_allocated(), big);
  EXPECT_EQ(arena.bytes_reserved(), 64 + Arena::Footprint(big));
}

// Exact sizing: an arena built with the sum of its allocations' footprints
// holds them all in its one chunk, with nothing left over, whatever their
// sizes and alignments.
TEST(Arena, ExactCapacityHoldsThePlannedAllocations) {
  std::vector<std::pair<size_t, size_t>> requests;  // (bytes, alignment)
  size_t capacity = 0;
  for (size_t i = 0; i < 100; ++i) {
    const size_t bytes = 1 + (i * 13) % 97;
    requests.emplace_back(bytes, size_t{1} << (i % 4));
    capacity += Arena::Footprint(bytes);
  }
  Arena arena(capacity);
  for (const auto& [bytes, alignment] : requests) {
    const char* p = static_cast<char*>(arena.Allocate(bytes, alignment));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignment, 0u);
  }
  EXPECT_EQ(arena.bytes_reserved(), capacity);
  EXPECT_EQ(arena.bytes_used(), capacity);
}

TEST(Arena, ByteAccountingIsMonotonic) {
  Arena arena;
  size_t last = 0;
  for (size_t i = 1; i <= 64; ++i) {
    arena.Allocate(i * 16, 8);
    EXPECT_GT(arena.bytes_allocated(), last);
    last = arena.bytes_allocated();
    EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
  }
}

#if GSGROW_HAS_ASAN
// The whole point of the poisoning hooks: memory BETWEEN allocations of one
// chunk must trap, exactly like reading past a heap vector would.
TEST(Arena, RedZonesBetweenAllocationsArePoisoned) {
  Arena arena;
  char* a = static_cast<char*>(arena.Allocate(32, 8));
  char* b = static_cast<char*>(arena.Allocate(32, 8));
  EXPECT_FALSE(__asan_address_is_poisoned(a));
  EXPECT_FALSE(__asan_address_is_poisoned(a + 31));
  EXPECT_FALSE(__asan_address_is_poisoned(b));
  // One byte past allocation `a` lies in its red zone (b was placed at
  // least kRedZoneBytes later).
  EXPECT_GE(b - a, static_cast<ptrdiff_t>(32 + Arena::kRedZoneBytes));
  EXPECT_TRUE(__asan_address_is_poisoned(a + 32));
}
#endif

}  // namespace
}  // namespace gsgrow
