// Augmented time (the paper's future-work item 7.2.1): when every node's
// clock is within a known skew bound epsilon of true time, timestamps
// induce extra order on top of happened-before -- event `a` certainly
// precedes event `b` whenever a.time + epsilon < b.time, even without any
// message between them. The computation's effective order becomes the
// intersection of the lattice order with this interval order, which prunes
// concurrency: fewer consistent cuts, fewer lattice paths, narrower verdict
// sets.
//
// This is an offline / oracle-side refinement (a live monitor would obtain
// the same guarantee from synchronized clocks in its consistency checks);
// it quantifies how much a deployment gains from bounded skew, as the
// paper's discussion of [9] anticipates ("only useful for applications that
// produce events with frequency less than [the skew]").
#pragma once

#include "decmon/lattice/computation.hpp"
#include "decmon/lattice/oracle.hpp"

namespace decmon {

/// A computation refined by a clock-skew bound. Wraps `Computation` and
/// strengthens `can_advance`: a cut may take process p's next event only if
/// no other process has an excluded event that certainly happened earlier
/// (its timestamp is more than `epsilon` older).
class TimedComputation {
 public:
  /// `epsilon` in the same unit as Event::time (seconds); infinite epsilon
  /// degenerates to the plain happened-before semantics.
  TimedComputation(const Computation* comp, double epsilon)
      : comp_(comp), epsilon_(epsilon) {}

  const Computation& base() const { return *comp_; }
  double epsilon() const { return epsilon_; }

  bool can_advance(const Computation::Cut& cut, int p) const;

 private:
  const Computation* comp_;
  double epsilon_;
};

/// The oracle's walk over the refined order: same outputs as
/// `oracle_evaluate`, fewer cuts and (possibly) fewer verdicts; its
/// `lattice_nodes` counts the refined order's consistent cuts. Throws
/// std::logic_error when the refined order cannot reach the top cut.
OracleResult oracle_evaluate_timed(const TimedComputation& timed,
                                   const MonitorAutomaton& monitor,
                                   std::size_t max_nodes = kOracleMaxNodes);

}  // namespace decmon
