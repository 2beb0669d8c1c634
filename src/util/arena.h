// Bump-pointer arena for immutable index storage (DESIGN.md §9).
//
// The inverted-index read path is built from many small immutable arrays
// (per-sequence event tables, offsets, position lists, postings). An Arena
// packs all arrays of one build — a whole batch index, or one snapshot's
// frozen delta — into one heap allocation of exactly the bytes they take,
// and releases it in one free when the last index view holding it dies
// (views hold their arenas through shared_ptr<const Arena>).
//
// Exact sizing: every allocation starts on a kGrain boundary and occupies
// Footprint(bytes) of its chunk, whatever its position, so a builder that
// adds up the footprints of what it will store can construct the arena with
// that capacity and fill it with no slack and no second chunk. An
// allocation that does not fit takes a new chunk of exactly its own
// footprint; there is no growth policy to over-reserve.
//
// Ownership rule: an Arena is MUTATED only while a build is assembling its
// arrays (single-threaded, writer side); afterwards it is held const and
// only the memory it handed out is read. Readers never touch the Arena
// object itself, so sharing frozen blocks across threads needs no
// synchronization beyond the shared_ptr.
//
// ASan: arenas are a classic way to hide heap-buffer-overflows from
// AddressSanitizer — a read past one array lands in the neighboring
// allocation of the same chunk, which plain ASan considers valid memory.
// Under ASan this arena poisons every chunk on acquisition, unpoisons
// exactly the bytes of each allocation, and keeps a poisoned red zone
// between consecutive allocations, so out-of-bounds reads inside a chunk
// fault just like vector overflows do (tests/util/arena_test.cc).

#ifndef GSGROW_UTIL_ARENA_H_
#define GSGROW_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define GSGROW_HAS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GSGROW_HAS_ASAN 1
#endif
#endif
#ifndef GSGROW_HAS_ASAN
#define GSGROW_HAS_ASAN 0
#endif

namespace gsgrow {

class Arena {
 public:
  /// Every allocation starts on a multiple of kGrain bytes, which is also
  /// the largest alignment an allocation may ask for.
  static constexpr size_t kGrain = 8;
  /// Poisoned gap kept between consecutive allocations under ASan, so a
  /// read past one array faults instead of silently hitting its neighbor.
  static constexpr size_t kRedZoneBytes = GSGROW_HAS_ASAN ? 16 : 0;

  /// Chunk bytes one Allocate(bytes, ...) takes, wherever it lands.
  static constexpr size_t Footprint(size_t bytes) {
    return (bytes + kGrain - 1) / kGrain * kGrain + kRedZoneBytes;
  }

  /// Chunk bytes one AllocateArray<T>(n) (or CopyArray of n elements)
  /// takes; an empty array takes none.
  template <typename T>
  static constexpr size_t ArrayFootprint(size_t n) {
    return n == 0 ? 0 : Footprint(n * sizeof(T));
  }

  /// An arena whose first chunk holds exactly `capacity` bytes (no chunk
  /// when 0): the sum of the footprints the caller is about to allocate.
  explicit Arena(size_t capacity = 0);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// `bytes` of storage aligned to `alignment` (a power of two <= kGrain).
  /// Never returns null.
  void* Allocate(size_t bytes, size_t alignment);

  /// Uninitialized array of `n` T. T must be trivially destructible — the
  /// arena never runs destructors.
  template <typename T>
  std::span<T> AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    if (n == 0) return {};
    T* data = static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
    return {data, n};
  }

  /// Arena-owned copy of `src` (empty input yields an empty span).
  template <typename T>
  std::span<const T> CopyArray(std::span<const T> src) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (src.empty()) return {};
    std::span<T> dst = AllocateArray<T>(src.size());
    std::memcpy(dst.data(), src.data(), src.size_bytes());
    return dst;
  }

  /// Total payload bytes handed out (excludes grain padding, red zones,
  /// and unused chunk tails).
  size_t bytes_allocated() const { return allocated_; }

  /// Total chunk bytes acquired from the heap.
  size_t bytes_reserved() const { return reserved_; }

  /// Chunk bytes taken by allocations: the sum of their footprints. Equal
  /// to bytes_reserved() once an exactly sized arena is full.
  size_t bytes_used() const { return used_; }

 private:
  struct Chunk {
    char* data;
    size_t size;
  };

  void NewChunk(size_t bytes);

  std::vector<Chunk> chunks_;
  char* head_ = nullptr;  // next free byte in the current chunk
  char* end_ = nullptr;   // one past the current chunk
  size_t allocated_ = 0;
  size_t reserved_ = 0;
  size_t used_ = 0;
};

}  // namespace gsgrow

#endif  // GSGROW_UTIL_ARENA_H_
