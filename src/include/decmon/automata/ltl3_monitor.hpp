// LTL3 monitor synthesis (Bauer-Leucker-Schallhart): from an LTL formula to
// the deterministic Moore machine of Def. 12.
//
// Pipeline:
//   1. Build Buchi automata for phi and !phi (GPVW tableau).
//   2. Per-state nonemptiness (the F function): which states still admit an
//      accepting continuation.
//   3. Joint subset construction over the formula's atoms, keeping only
//      nonempty states; a product state is FALSE when the phi-side subset
//      dies, TRUE when the !phi-side dies, UNKNOWN otherwise.
//   4. Final states become absorbing sinks (verdicts are irrevocable,
//      Def. 11), matching the single `true` self-loop of the paper's
//      figures.
//   5. Optional Moore minimization (partition refinement).
//   6. Letter-level transition function -> conjunctive-predicate transitions
//      via two-level minimization; disjunctive guards are split into one
//      transition per cube (the representation the algorithm consumes).
#pragma once

#include "decmon/automata/monitor_automaton.hpp"
#include "decmon/ltl/formula.hpp"

namespace decmon {

struct SynthesisOptions {
  /// Merge Moore-equivalent states. The paper's experiments deliberately
  /// keep a non-collapsed automaton for properties A/C/D ("it provides more
  /// information as q1 is a ? state", 5.1); disable to approximate that.
  bool minimize = true;
};

/// A determinized Moore machine in dense letter-table form; the intermediate
/// representation between subset construction and predicate extraction.
/// Exposed for tests and for the minimization ablation bench.
struct MooreTable {
  int num_states = 0;
  int initial = 0;
  int num_letters = 1;                  ///< 1 << atom_pos.size()
  std::vector<Verdict> label;           ///< per state
  std::vector<std::vector<int>> next;   ///< [state][letter] -> state
  std::vector<int> atom_pos;            ///< dense letter bit -> atom id
};

/// Subset-construct the Moore table for `formula` (steps 1-4 above).
MooreTable build_moore_table(const FormulaPtr& formula);

/// Moore-machine minimization by partition refinement (step 5).
MooreTable minimize_moore(const MooreTable& table);

/// Extract conjunctive-predicate transitions from a Moore table (step 6).
MonitorAutomaton monitor_from_table(const MooreTable& table);

/// The whole pipeline.
MonitorAutomaton synthesize_monitor(const FormulaPtr& formula,
                                    const SynthesisOptions& options = {});

/// Convenience: the LTL3 verdict of a finite trace, via a synthesized
/// monitor (Def. 11). Intended for tests and small tools.
Verdict evaluate_ltl3(const FormulaPtr& formula,
                      const std::vector<AtomSet>& trace);

}  // namespace decmon
