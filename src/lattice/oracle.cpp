#include "decmon/lattice/oracle.hpp"

#include "decmon/lattice/cut_walk.hpp"

namespace decmon {

OracleResult oracle_evaluate(const Computation& comp,
                             const MonitorAutomaton& monitor,
                             std::size_t max_nodes) {
  detail::CutWalk walk(comp, monitor, max_nodes, "oracle_evaluate");
  do {
    walk.settle();
  } while (walk.advance([&comp](const Computation::Cut& cut, int p) {
    return comp.can_advance(cut, p);
  }));
  return walk.result();
}

}  // namespace decmon
