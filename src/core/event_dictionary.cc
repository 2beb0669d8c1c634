#include "core/event_dictionary.h"

#include <bit>
#include <charconv>
#include <cstring>

namespace gsgrow {

namespace {

uint64_t Load32(const char* p) {
  uint32_t word;
  std::memcpy(&word, p, 4);
  return word;
}

// The 1..7 bytes at `p` packed into a word by fixed-size loads (two
// overlapping 4-byte loads, or three single bytes), with no variable-length
// copy: a memcpy of n bytes into a word stalls the word's load on store
// forwarding, which cost more than the rest of an intern put together.
// Distinct inputs of one length give distinct words.
uint64_t LoadTail(const char* p, size_t n) {
  if (n >= 4) return Load32(p) | Load32(p + n - 4) << 32;
  return static_cast<uint64_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint64_t>(static_cast<unsigned char>(p[n / 2])) << 8 |
         static_cast<uint64_t>(static_cast<unsigned char>(p[n - 1])) << 16;
}

}  // namespace

uint32_t EventDictionary::Hash(std::string_view name) {
  // Eight bytes at a time, each folded in FxHash-style (rotate, xor,
  // multiply), then murmur3's 64-bit finalizer so the low bits the table
  // indexes by depend on every input byte. The length seeds the state, so
  // names that differ only in trailing NUL bytes hash apart.
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;
  uint64_t h = name.size();
  const char* p = name.data();
  size_t n = name.size();
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = (std::rotl(h, 5) ^ word) * kMul;
  }
  if (n != 0) h = (std::rotl(h, 5) ^ LoadTail(p, n)) * kMul;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<uint32_t>(h);
}

size_t EventDictionary::Find(std::string_view name, uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kNoEvent ||
        (slot.tag == tag && names_[slot.id] == name)) {
      return i;
    }
  }
}

void EventDictionary::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot());
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kNoEvent) continue;
    size_t i = slot.tag & mask;
    while (slots_[i].id != kNoEvent) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

EventId EventDictionary::Intern(std::string_view name) {
  // At most half full: a miss ends its probe at an empty slot within a
  // couple of steps on average.
  if (2 * (names_.size() + 1) > slots_.size()) Grow();
  const uint32_t tag = Hash(name);
  Slot& slot = slots_[Find(name, tag)];
  if (slot.id != kNoEvent) return slot.id;
  slot = {tag, static_cast<EventId>(names_.size())};
  names_.emplace_back(name);
  return slot.id;
}

EventId EventDictionary::Lookup(std::string_view name) const {
  if (slots_.empty()) return kNoEvent;
  return slots_[Find(name, Hash(name))].id;
}

std::string EventDictionary::Name(EventId id) const {
  if (id < names_.size()) return names_[id];
  std::string name;
  AppendName(id, &name);
  return name;
}

void EventDictionary::AppendName(EventId id, std::string* out) const {
  if (id < names_.size()) {
    *out += names_[id];
    return;
  }
  char digits[16];
  const char* end = std::to_chars(digits, digits + sizeof(digits), id).ptr;
  out->push_back('e');
  out->append(digits, static_cast<size_t>(end - digits));
}

}  // namespace gsgrow
