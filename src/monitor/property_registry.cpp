#include "decmon/monitor/property_registry.hpp"

#include <utility>

namespace decmon {
namespace {

MonitorAutomaton with_dispatch(MonitorAutomaton m) {
  m.build_dispatch();
  return m;
}

}  // namespace

PropertyArtifact::PropertyArtifact(AtomRegistry registry,
                                   MonitorAutomaton automaton)
    : registry_(std::move(registry)),
      automaton_(with_dispatch(std::move(automaton))),
      property_(&automaton_, &registry_) {}

}  // namespace decmon
