// The oracle of Chapter 3: with global knowledge of the computation, label
// every lattice path with its LTL3 verdict. Because the monitor automaton is
// deterministic and final verdicts are absorbing, the set of verdicts over
// all paths equals the verdict labels of the automaton-state set reachable
// at the top cut -- computed by dynamic programming over consistent cuts,
// layer by layer (cuts with the same number of events), without
// enumerating paths and without keeping more than two layers alive.
//
// This is the ground truth for the soundness (Eq. 3.2) and completeness
// (Eq. 3.1) tests of the decentralized algorithm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>

#include "decmon/automata/monitor_automaton.hpp"
#include "decmon/lattice/computation.hpp"

namespace decmon {

struct OracleResult {
  /// Automaton states reachable at the top cut (one per path class).
  std::set<int> final_states;
  /// Their verdict labels: the oracle's verdict set over all paths.
  std::set<Verdict> verdicts;
  /// Number of consistent cuts explored (lattice size).
  std::uint64_t lattice_nodes = 0;
  /// Number of distinct pivot global states (cuts where some incoming path
  /// changes the automaton state), per Def. 17.
  std::uint64_t pivot_states = 0;
};

/// Default cap on the cuts one oracle evaluation may visit.
inline constexpr std::size_t kOracleMaxNodes = std::size_t{1} << 22;

/// Evaluate the oracle. Exponential in the worst case; throws
/// std::length_error once more than `max_nodes` cuts have been visited.
OracleResult oracle_evaluate(const Computation& comp,
                             const MonitorAutomaton& monitor,
                             std::size_t max_nodes = kOracleMaxNodes);

}  // namespace decmon
