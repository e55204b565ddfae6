#include "decmon/monitor/property_registry.hpp"

#include <stdexcept>
#include <utility>

namespace decmon {
namespace {

// The single admission check: a guard on an atom the registry never
// declares has no owning process, so restrict_to_process would drop its
// literal from every local split and each replica would call the guard
// locally satisfied -- an unsound verdict. Reject the pair instead.
MonitorAutomaton admit(MonitorAutomaton m, const AtomRegistry& registry) {
  const int declared = registry.num_atoms();
  const AtomSet in_range =
      declared >= 64 ? ~AtomSet{0} : (AtomSet{1} << declared) - 1;
  if ((m.relevant_atoms() & ~in_range) != 0) {
    throw std::invalid_argument(
        "PropertyArtifact: automaton reads an atom the registry does not "
        "declare");
  }
  m.build_dispatch();
  return m;
}

}  // namespace

PropertyArtifact::PropertyArtifact(AtomRegistry registry,
                                   MonitorAutomaton automaton)
    : registry_(std::move(registry)),
      automaton_(admit(std::move(automaton), registry_)),
      property_(&automaton_, &registry_) {}

}  // namespace decmon
