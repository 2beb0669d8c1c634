#include "core/event_dictionary.h"

namespace gsgrow {

EventId EventDictionary::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  EventId id = static_cast<EventId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

EventId EventDictionary::Lookup(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoEvent : it->second;
}

std::string EventDictionary::Name(EventId id) const {
  if (id < names_.size()) return names_[id];
  // Built with += : gcc 12's -O3 -Wrestrict misfires on
  // `"literal" + std::to_string(...)`.
  std::string name = "e";
  name += std::to_string(id);
  return name;
}

}  // namespace gsgrow
