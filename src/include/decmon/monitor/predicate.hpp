// Property compilation for decentralized evaluation: every monitor
// transition's conjunctive predicate is split by owning process, so a
// monitor can check "is my process forbidding this transition?" against a
// local letter alone (§4.1, problem 1).
#pragma once

#include <vector>

#include "decmon/automata/analysis.hpp"
#include "decmon/automata/guard.hpp"
#include "decmon/automata/monitor_automaton.hpp"
#include "decmon/ltl/atoms.hpp"

namespace decmon {

/// One transition with its guard pre-split per process.
struct CompiledTransition {
  int id = -1;
  int from = -1;
  int to = -1;
  bool self_loop = false;
  /// Does the source state have any self-loop? Cached so the token walk's
  /// feasibility check (X-shaped source states) is a field read.
  bool from_has_self_loop = false;
  Cube guard;
  std::vector<Cube> local;        ///< [proc]: the literals proc owns
  std::vector<int> participants;  ///< processes with non-empty local cubes
};

class PropertyArtifact;

/// A monitor automaton compiled against an atom registry for `n` processes.
/// Immutable after construction; shared read-only by all monitor replicas
/// (CP.mess: no mutable sharing). Only a PropertyArtifact builds one, and
/// it is never copied out: the artifact owns the automaton and registry
/// this object points into, so the pointees outlive the property by
/// construction.
class CompiledProperty {
 public:
  CompiledProperty(const CompiledProperty&) = delete;
  CompiledProperty& operator=(const CompiledProperty&) = delete;

  const MonitorAutomaton& automaton() const { return *automaton_; }
  const AtomRegistry& registry() const { return *registry_; }
  int num_processes() const { return registry_->num_processes(); }

  const CompiledTransition& transition(int id) const {
    return transitions_.at(static_cast<std::size_t>(id));
  }

  /// Outgoing (non-self-loop) transition ids from state `q`.
  const std::vector<int>& outgoing(int q) const {
    return outgoing_.at(static_cast<std::size_t>(q));
  }

  /// Self-loop transition ids at state `q`.
  const std::vector<int>& self_loops(int q) const {
    return self_loops_.at(static_cast<std::size_t>(q));
  }

  /// Deterministic step on a full letter; never fails for complete automata.
  int step(int q, AtomSet letter) const;

  /// The transition taken by `step` (nullptr when none matches). O(1) when
  /// the automaton's dispatch table is built.
  const MonitorTransition* match(int q, AtomSet letter) const {
    return automaton_->matching_transition(q, letter);
  }

  /// Do `proc`'s literals of transition `tid` hold for this local letter?
  /// (If proc does not participate, trivially true.) The per-(transition,
  /// process) cubes are memoized in one flat array at construction, so this
  /// is two masked compares with no pointer chasing -- it is the innermost
  /// conjunct check of every probe and token walk.
  bool locally_satisfied(int tid, int proc, AtomSet local_letter) const {
    return local_flat_[static_cast<std::size_t>(tid) *
                           static_cast<std::size_t>(num_processes_) +
                       static_cast<std::size_t>(proc)]
        .matches(local_letter);
  }

  /// All atoms any guard reads (cached; the probe-signature mask).
  AtomSet relevant_atoms() const { return relevant_atoms_; }

  Verdict verdict(int q) const { return automaton_->verdict(q); }
  bool is_final(int q) const { return automaton_->is_final(q); }
  int initial_state() const { return automaton_->initial_state(); }

  // -- static-analysis facts (future-work 7.2.2) --
  const AutomatonAnalysis& analysis() const { return analysis_; }

  /// No definite verdict reachable from `q`: probing there cannot change
  /// the outcome.
  bool verdict_settled(int q) const { return analysis_.verdict_settled(q); }

 private:
  friend class PropertyArtifact;
  CompiledProperty(const MonitorAutomaton* automaton,
                   const AtomRegistry* registry);

  const MonitorAutomaton* automaton_;
  const AtomRegistry* registry_;
  AutomatonAnalysis analysis_;
  int num_processes_ = 0;
  AtomSet relevant_atoms_ = 0;
  std::vector<CompiledTransition> transitions_;
  std::vector<Cube> local_flat_;  ///< [tid * n + proc] split guards
  std::vector<std::vector<int>> outgoing_;
  std::vector<std::vector<int>> self_loops_;
};

}  // namespace decmon
