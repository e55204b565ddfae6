// The paper's case study as a command-line tool (§5.1-5.2): a network of
// devices runs trace-driven programs (propositions p and q per device,
// normal-distribution wait times, broadcast communication events) monitored
// for one of the six benchmark properties A-F.
//
//   device_network [property A-F] [processes 2-5] [commMu seconds|off]
//                  [seed]
//
// e.g.  device_network C 4 9 1   -- property C, 4 devices, CommMu = 9 s.
// Prints the run's verdicts and the paper's overhead metrics.
#include <cstdlib>
#include <iostream>
#include <string>

#include "decmon/decmon.hpp"

int main(int argc, char** argv) {
  using namespace decmon;

  paper::Property prop = paper::Property::kC;
  int n = 4;
  double comm_mu = 3.0;
  bool comm_enabled = true;
  std::uint64_t seed = 1;

  if (argc > 1) {
    const std::string p = argv[1];
    if (p.size() != 1 || p[0] < 'A' || p[0] > 'F') {
      std::cerr << "usage: " << argv[0]
                << " [A-F] [2-5] [commMu|off] [seed]\n";
      return 2;
    }
    prop = static_cast<paper::Property>(p[0] - 'A');
  }
  if (argc > 2) n = std::atoi(argv[2]);
  if (argc > 3) {
    const std::string c = argv[3];
    if (c == "off" || c == "no") {
      comm_enabled = false;
    } else {
      comm_mu = std::atof(c.c_str());
    }
  }
  if (argc > 4) seed = static_cast<std::uint64_t>(std::atoll(argv[4]));
  if (n < 2 || n > 16) {
    std::cerr << "process count out of range\n";
    return 2;
  }

  // The paper's workload: Evt ~ N(3, 1), Comm ~ N(commMu, 1), and traces
  // designed so that a satisfying path to a final state exists.
  TraceParams params =
      paper::experiment_params(prop, n, seed, comm_mu, comm_enabled);
  SystemTrace trace = generate_trace(params);
  force_final_all_true(trace);

  MonitorSession session(
      paper::shared_property(prop, n, paper::make_registry(n)));
  const MonitorAutomaton& automaton = session.automaton();
  std::cout << "property " << paper::name(prop) << "(" << n
            << "): " << paper::formula_text(prop, n) << "\n";
  std::cout << "automaton: " << automaton.num_states() << " states, "
            << automaton.count_outgoing() << " outgoing + "
            << automaton.count_self_loops() << " self-loop transitions\n";

  RunResult r = session.run(trace);

  std::cout << "\n--- run (seed " << seed << ", CommMu = "
            << (comm_enabled ? std::to_string(comm_mu) : std::string("off"))
            << ") ---\n";
  std::cout << "program events:           " << r.program_events << "\n";
  std::cout << "application messages:     " << r.app_messages << "\n";
  std::cout << "monitoring messages:      " << r.monitor_messages << "\n";
  std::cout << "total global views:       " << r.total_global_views << "\n";
  std::cout << "avg delayed events:       " << r.average_delayed_events
            << "\n";
  std::cout << "program time:             " << r.program_end << " s\n";
  std::cout << "monitor drain time:       " << r.monitor_end << " s\n";
  std::cout << "delay % per global view:   "
            << r.delay_time_percent_per_view() << "\n";
  std::cout << "verdicts: ";
  for (Verdict v : r.verdict.verdicts) std::cout << to_string(v) << ' ';
  std::cout << "\n";
  if (r.verdict.first_violation_time >= 0) {
    std::cout << "first violation declared at t="
              << r.verdict.first_violation_time << " s\n";
  }
  if (r.verdict.first_satisfaction_time >= 0) {
    std::cout << "first satisfaction declared at t="
              << r.verdict.first_satisfaction_time << " s\n";
  }

  // Centralized baseline for comparison (Table 6.1's trade-off, made
  // concrete).
  RunResult c = session.run_centralized(trace);
  std::cout << "\n--- centralized baseline ---\n";
  std::cout << "monitoring messages:      " << c.monitor_messages << "\n";
  std::cout << "explored cuts at center:  " << c.total_global_views << "\n";
  return r.verdict.all_finished ? 0 : 1;
}
