#include "decmon/lattice/oracle.hpp"

#include "cut_walk.hpp"

namespace decmon {

OracleResult oracle_evaluate(const Computation& comp,
                             const MonitorAutomaton& monitor,
                             std::size_t max_nodes) {
  return detail::walk_cuts(
      comp, monitor, max_nodes,
      [&comp](const Computation::Cut& cut, int p) {
        return comp.can_advance(cut, p);
      },
      "oracle_evaluate");
}

}  // namespace decmon
