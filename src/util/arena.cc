#include "util/arena.h"

#include <cstddef>

#include "util/logging.h"

#if GSGROW_HAS_ASAN
#include <sanitizer/asan_interface.h>
#define GSGROW_ASAN_POISON(addr, size) __asan_poison_memory_region(addr, size)
#define GSGROW_ASAN_UNPOISON(addr, size) \
  __asan_unpoison_memory_region(addr, size)
#else
#define GSGROW_ASAN_POISON(addr, size) ((void)0)
#define GSGROW_ASAN_UNPOISON(addr, size) ((void)0)
#endif

namespace gsgrow {

Arena::Arena(size_t capacity) {
  if (capacity > 0) NewChunk(capacity);
}

Arena::~Arena() {
  for (const Chunk& chunk : chunks_) {
    // ASan forbids releasing poisoned memory back to the allocator.
    GSGROW_ASAN_UNPOISON(chunk.data, chunk.size);
    delete[] chunk.data;
  }
}

void Arena::NewChunk(size_t bytes) {
  // `new char[]` returns max_align_t-aligned storage, and every footprint
  // is a multiple of kGrain, so each allocation head stays kGrain-aligned.
  char* data = new char[bytes];
  GSGROW_ASAN_POISON(data, bytes);
  chunks_.push_back(Chunk{data, bytes});
  reserved_ += bytes;
  head_ = data;
  end_ = data + bytes;
}

void* Arena::Allocate(size_t bytes, [[maybe_unused]] size_t alignment) {
  static_assert(alignof(std::max_align_t) % kGrain == 0);
  GSGROW_DCHECK(alignment != 0 && (alignment & (alignment - 1)) == 0);
  GSGROW_DCHECK(alignment <= kGrain);
  const size_t footprint = Footprint(bytes);
  if (head_ == nullptr || footprint > static_cast<size_t>(end_ - head_)) {
    NewChunk(footprint);
  }
  char* p = head_;
  GSGROW_ASAN_UNPOISON(p, bytes);
  // The grain padding and the red zone past the allocation stay poisoned.
  head_ = p + footprint;
  allocated_ += bytes;
  used_ += footprint;
  return p;
}

}  // namespace gsgrow
