// Bidirectional mapping between event names (strings) and dense EventIds.

#ifndef GSGROW_CORE_EVENT_DICTIONARY_H_
#define GSGROW_CORE_EVENT_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"

namespace gsgrow {

/// Longest event name the input boundaries accept, in bytes: the text
/// parser (io/text_format.h) and the service's name-carrying appends
/// (serve/mining_service.h) refuse a longer one with InvalidArgument. The
/// dictionary itself does not enforce it, so WAL replay and checkpoint load
/// intern whatever the service once logged.
inline constexpr size_t kMaxEventNameBytes = 4096;

/// Interns event names to dense ids in first-seen order.
///
/// Ids are dense in [0, size()), which lets the core index events with flat
/// arrays. The dictionary is optional: databases built directly from ids
/// synthesize names on demand ("e<id>").
///
/// Layout (DESIGN.md §9): the names in id order, plus an open-addressing
/// table of (hash tag, id) slots, probed linearly and kept at most half
/// full. A probe compares the 32-bit tag before it touches a name, and a
/// copy of the dictionary is two flat vector copies.
class EventDictionary {
 public:
  EventDictionary() = default;

  /// Returns the id for `name`, interning it if new.
  EventId Intern(std::string_view name);

  /// Returns the id for `name` or kNoEvent when unknown.
  EventId Lookup(std::string_view name) const;

  /// Name of `id`; synthesizes "e<id>" for ids beyond the interned range
  /// (used by databases constructed from raw ids).
  std::string Name(EventId id) const;

  /// Appends Name(id) to `out` without building a temporary string: the
  /// response writers format every event of every row through it.
  void AppendName(EventId id, std::string* out) const;

  /// True if `id` was interned (has a real name).
  bool Contains(EventId id) const { return id < names_.size(); }

  size_t size() const { return names_.size(); }

 private:
  // One table slot; an empty slot holds kNoEvent. `tag` is the low 32 bits
  // of the name's hash, so the table grows without rehashing a name.
  struct Slot {
    uint32_t tag = 0;
    EventId id = kNoEvent;
  };

  static uint32_t Hash(std::string_view name);
  // The slot holding `name`, or the empty slot that ends its probe. The
  // table must not be empty.
  size_t Find(std::string_view name, uint32_t tag) const;
  // Doubles the table (from 16 slots) and re-places every id by its tag.
  void Grow();

  std::vector<std::string> names_;
  std::vector<Slot> slots_;  // power-of-two size
};

}  // namespace gsgrow

#endif  // GSGROW_CORE_EVENT_DICTIONARY_H_
