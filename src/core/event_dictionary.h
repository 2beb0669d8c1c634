// Bidirectional mapping between event names (strings) and dense EventIds.

#ifndef GSGROW_CORE_EVENT_DICTIONARY_H_
#define GSGROW_CORE_EVENT_DICTIONARY_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/types.h"

namespace gsgrow {

/// Interns event names to dense ids in first-seen order.
///
/// Ids are dense in [0, size()), which lets the core index events with flat
/// arrays. The dictionary is optional: databases built directly from ids
/// synthesize names on demand ("e<id>").
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

  /// True if `id` was interned (has a real name).
  bool Contains(EventId id) const { return id < names_.size(); }

  size_t size() const { return names_.size(); }

 private:
  // Transparent hash + std::equal_to<> let Intern/Lookup probe with the
  // caller's string_view; a std::string is built only for a new name.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, EventId, NameHash, std::equal_to<>> ids_;
};

}  // namespace gsgrow

#endif  // GSGROW_CORE_EVENT_DICTIONARY_H_
