// Shared immutable property artifacts.
//
// A PropertyArtifact bundles the three objects whose lifetimes are coupled
// by CompiledProperty's internal pointers -- the atom registry, the monitor
// automaton (dispatch table built), and the compiled property -- into one
// immutable, heap-pinned unit. Sessions, monitor replicas, and service
// shard catalogs share it by `shared_ptr<const ...>`: admission of a known
// property is a memo lookup plus a refcount bump (paper::shared_property),
// and no copy of the automaton or its dispatch tables is ever made on the
// hot path.
//
// Lifetime rule: clearing the synthesis memo never invalidates live
// monitors -- outstanding shared_ptrs keep their artifact alive until the
// last session drops it.
#pragma once

#include <memory>

#include "decmon/ltl/atoms.hpp"
#include "decmon/automata/monitor_automaton.hpp"
#include "decmon/monitor/predicate.hpp"

namespace decmon {

/// Registry + automaton + compiled property as one immutable unit. Neither
/// copyable nor movable: CompiledProperty holds raw pointers into the
/// sibling members, so the artifact lives at a fixed address (always behind
/// a shared_ptr -- see SharedProperty).
class PropertyArtifact {
 public:
  /// Takes ownership of both inputs; builds the automaton's dispatch table
  /// if not already built, then compiles the property against the registry.
  /// The only way a property reaches a monitor, and so the single admission
  /// check: throws std::invalid_argument when a guard reads an atom at or
  /// above registry.num_atoms().
  PropertyArtifact(AtomRegistry registry, MonitorAutomaton automaton);

  PropertyArtifact(const PropertyArtifact&) = delete;
  PropertyArtifact& operator=(const PropertyArtifact&) = delete;

  const AtomRegistry& registry() const { return registry_; }
  const MonitorAutomaton& automaton() const { return automaton_; }
  const CompiledProperty& property() const { return property_; }

 private:
  AtomRegistry registry_;
  MonitorAutomaton automaton_;
  CompiledProperty property_;  ///< points into the two members above
};

/// The unit of sharing: one artifact, any number of sessions.
using SharedProperty = std::shared_ptr<const PropertyArtifact>;

/// A handle to the artifact's CompiledProperty that keeps the whole
/// artifact alive (shared_ptr aliasing): the only form in which the
/// monitors (MonitorProcess, DecentralizedMonitor, CentralizedMonitor)
/// take and hold a property.
inline std::shared_ptr<const CompiledProperty> property_handle(
    const SharedProperty& artifact) {
  return std::shared_ptr<const CompiledProperty>(artifact,
                                                 &artifact->property());
}

}  // namespace decmon
