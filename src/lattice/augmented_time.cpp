#include "decmon/lattice/augmented_time.hpp"

#include "decmon/lattice/cut_walk.hpp"

namespace decmon {

bool TimedComputation::can_advance(const Computation::Cut& cut, int p) const {
  if (!comp_->can_advance(cut, p)) return false;
  const Event& e =
      comp_->event(p, cut[static_cast<std::size_t>(p)] + 1);
  // Refinement: every event that certainly happened before `e` (timestamp
  // more than epsilon older) must already be inside the cut.
  for (int j = 0; j < comp_->num_processes(); ++j) {
    if (j == p) continue;
    const std::uint32_t next = cut[static_cast<std::size_t>(j)] + 1;
    if (next > comp_->num_events(j)) continue;
    const Event& f = comp_->event(j, next);
    if (f.time + epsilon_ < e.time) return false;
  }
  return true;
}

OracleResult oracle_evaluate_timed(const TimedComputation& timed,
                                   const MonitorAutomaton& monitor,
                                   std::size_t max_nodes) {
  detail::CutWalk walk(timed.base(), monitor, max_nodes,
                       "oracle_evaluate_timed");
  do {
    walk.settle();
  } while (walk.advance([&timed](const Computation::Cut& cut, int p) {
    return timed.can_advance(cut, p);
  }));
  return walk.result();
}

}  // namespace decmon
