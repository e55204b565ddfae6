// Shared harness for the figure/table benches: run one experimental cell
// (property, process count, communication settings) the way Chapter 5 does
// -- three replications with different randomly generated traces, averaged.
#pragma once

#include <cmath>
#include <cstdio>

#include "decmon/decmon.hpp"

namespace decmon::bench {

struct Cell {
  double events = 0;            ///< program events (internal+send+receive)
  double app_messages = 0;
  double monitor_messages = 0;  ///< Fig. 5.4/5.5/5.9a metric
  double global_views = 0;      ///< Fig. 5.8/5.9c metric
  double delayed_events = 0;    ///< Fig. 5.7/5.9b metric
  double delay_pct_per_view = 0;///< Fig. 5.6/5.9b metric
  double program_time = 0;
  double monitor_extra_time = 0;
};

// Note on the grid: properties A and C produce byte-identical numbers at
// n = 3. That is not a bug in the harness -- it is the formulas. A is
// G(conj(0..n/2, p) U conj(n/2..n, p)) and C is G(P0.p U conj(1..n, p)),
// so whenever n/2 == 1 (i.e. n = 2 or 3) the two are the same formula and
// paper::experiment_params drives them with the same seeds. They diverge
// from n = 4 on (A's left conjunct widens), which the n = 5 cells show.
inline Cell run_cell(paper::Property prop, int n, double comm_mu,
                     bool comm_enabled, int internal_events = 25,
                     int replications = 3, std::uint64_t base_seed = 2015) {
  MonitorSession session(
      paper::shared_property(prop, n, paper::make_registry(n)));

  // The figure benches measure the communication cost of monitoring, so run
  // with in-transit frame coalescing (the deployment posture); equivalence
  // tests use the default kExact mode, which preserves golden schedules.
  SimConfig sim;
  sim.coalesce = CoalesceMode::kTransit;

  Cell cell;
  for (int r = 0; r < replications; ++r) {
    TraceParams params = paper::experiment_params(
        prop, n, base_seed + static_cast<std::uint64_t>(r), comm_mu,
        comm_enabled, internal_events);
    SystemTrace trace = generate_trace(params);
    force_final_all_true(trace);
    RunResult run = session.run(trace, sim);
    cell.events += static_cast<double>(run.program_events);
    cell.app_messages += static_cast<double>(run.app_messages);
    cell.monitor_messages += static_cast<double>(run.monitor_messages);
    cell.global_views += static_cast<double>(run.total_global_views);
    cell.delayed_events += run.average_delayed_events;
    cell.delay_pct_per_view += run.delay_time_percent_per_view();
    cell.program_time += run.program_end;
    cell.monitor_extra_time +=
        run.monitor_end > run.program_end ? run.monitor_end - run.program_end
                                          : 0.0;
  }
  const double k = static_cast<double>(replications);
  cell.events /= k;
  cell.app_messages /= k;
  cell.monitor_messages /= k;
  cell.global_views /= k;
  cell.delayed_events /= k;
  cell.delay_pct_per_view /= k;
  cell.program_time /= k;
  cell.monitor_extra_time /= k;
  return cell;
}

/// log10 with the figures' convention (they plot counts on a log scale).
inline double log_scale(double x) { return x > 0 ? std::log10(x) : 0.0; }

}  // namespace decmon::bench
