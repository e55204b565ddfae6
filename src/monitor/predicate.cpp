#include "decmon/monitor/predicate.hpp"

#include <stdexcept>

namespace decmon {

CompiledProperty::CompiledProperty(const MonitorAutomaton* automaton,
                                   const AtomRegistry* registry)
    : automaton_(automaton),
      registry_(registry),
      analysis_(analyze_automaton(*automaton)),
      num_processes_(registry->num_processes()),
      relevant_atoms_(automaton->relevant_atoms()) {
  const int n = num_processes_;
  const int states = automaton->num_states();
  outgoing_.resize(static_cast<std::size_t>(states));
  self_loops_.resize(static_cast<std::size_t>(states));
  transitions_.reserve(static_cast<std::size_t>(automaton->num_transitions()));
  local_flat_.reserve(static_cast<std::size_t>(automaton->num_transitions()) *
                      static_cast<std::size_t>(n));
  for (const MonitorTransition& t : automaton->transitions()) {
    CompiledTransition ct;
    ct.id = t.id;
    ct.from = t.from;
    ct.to = t.to;
    ct.self_loop = t.self_loop();
    ct.guard = t.guard;
    ct.local.reserve(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      Cube local = restrict_to_process(t.guard, *registry, p);
      if (!local.is_true()) ct.participants.push_back(p);
      ct.local.push_back(local);
      local_flat_.push_back(local);
    }
    if ((ct.local.size() == static_cast<std::size_t>(n)) == false) {
      throw std::logic_error("CompiledProperty: bad split");
    }
    if (ct.self_loop) {
      self_loops_[static_cast<std::size_t>(t.from)].push_back(t.id);
    } else {
      outgoing_[static_cast<std::size_t>(t.from)].push_back(t.id);
    }
    transitions_.push_back(std::move(ct));
  }
  for (CompiledTransition& ct : transitions_) {
    ct.from_has_self_loop =
        !self_loops_[static_cast<std::size_t>(ct.from)].empty();
  }
}

int CompiledProperty::step(int q, AtomSet letter) const {
  const MonitorTransition* t = match(q, letter);
  if (!t) {
    throw std::logic_error("CompiledProperty::step: incomplete automaton");
  }
  return t->to;
}

}  // namespace decmon
