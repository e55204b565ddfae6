#include "decmon/core/session.hpp"

#include <stdexcept>

#include "decmon/distributed/replay_runtime.hpp"
#include "decmon/lattice/computation.hpp"
#include "decmon/ltl/parser.hpp"
#include "decmon/monitor/centralized_monitor.hpp"

namespace decmon {

double RunResult::delay_time_percent_per_view() const {
  if (program_end <= 0.0 || total_global_views == 0) return 0.0;
  const double extra = monitor_end > program_end ? monitor_end - program_end
                                                 : 0.0;
  return (extra / program_end) * 100.0 /
         static_cast<double>(total_global_views);
}

MonitorSession::MonitorSession(AtomRegistry registry,
                               MonitorAutomaton automaton)
    // PropertyArtifact builds the dispatch table (hot-path prerequisite:
    // every match/step goes through the dense table) and compiles the
    // property; this session is the artifact's only owner.
    : artifact_(std::make_shared<PropertyArtifact>(std::move(registry),
                                                   std::move(automaton))) {}

MonitorSession::MonitorSession(SharedProperty artifact)
    : artifact_(std::move(artifact)) {
  if (!artifact_) {
    throw std::invalid_argument("MonitorSession: null property artifact");
  }
}

MonitorSession MonitorSession::from_text(const std::string& property,
                                         AtomRegistry registry,
                                         const SynthesisOptions& options) {
  FormulaPtr f = parse_ltl(property, registry);
  MonitorAutomaton m = synthesize_monitor(f, options);
  return MonitorSession(std::move(registry), std::move(m));
}

RunResult MonitorSession::run(const SystemTrace& trace, const SimConfig& sim,
                              const MonitorOptions& options) const {
  SimRuntime runtime(trace, &artifact_->registry(), sim);
  DecentralizedMonitor monitors(
      property_handle(artifact_), &runtime,
      initial_letters_of(registry(), runtime.initial_states()), options);
  runtime.set_hooks(&monitors);
  runtime.run();

  RunResult result;
  result.verdict = monitors.result();
  result.program_events = runtime.program_events();
  result.app_messages = runtime.app_messages_sent();
  result.monitor_messages = runtime.monitor_messages_sent();
  result.program_end = runtime.program_end_time();
  result.monitor_end = runtime.monitor_end_time();
  result.total_global_views = result.verdict.aggregate.global_views_created;
  result.average_delayed_events =
      result.verdict.aggregate.average_delayed_events();
  return result;
}

RunResult MonitorSession::run_centralized(const SystemTrace& trace,
                                          const SimConfig& sim,
                                          int central_node) const {
  SimRuntime runtime(trace, &artifact_->registry(), sim);
  CentralizedMonitor central(
      property_handle(artifact_), &runtime,
      initial_letters_of(registry(), runtime.initial_states()), central_node);
  runtime.set_hooks(&central);
  runtime.run();

  RunResult result;
  result.verdict.all_finished = central.finished();
  result.verdict.verdicts = central.verdicts();
  for (int q : central.final_states()) result.verdict.states.insert(q);
  result.program_events = runtime.program_events();
  result.app_messages = runtime.app_messages_sent();
  result.monitor_messages = runtime.monitor_messages_sent();
  result.program_end = runtime.program_end_time();
  result.monitor_end = runtime.monitor_end_time();
  // The centralized design walks cuts, not views. Explored cuts measure its
  // work; the widest layer is what it holds at once.
  result.total_global_views = central.explored_cuts();
  result.peak_layer_cuts = central.peak_layer_cuts();
  return result;
}

RunResult MonitorSession::replay(const Computation& computation,
                                 std::uint64_t seed,
                                 const MonitorOptions& options) const {
  ReplayRuntime runtime;
  std::vector<AtomSet> init;
  for (int p = 0; p < computation.num_processes(); ++p) {
    init.push_back(computation.event(p, 0).letter);
  }
  DecentralizedMonitor monitors(property_handle(artifact_), &runtime, init,
                                options);
  runtime.run(computation, monitors, seed);

  RunResult result;
  result.verdict = monitors.result();
  result.program_events = computation.total_events();
  result.monitor_messages = runtime.deliveries();
  result.total_global_views = result.verdict.aggregate.global_views_created;
  result.average_delayed_events =
      result.verdict.aggregate.average_delayed_events();
  return result;
}

OracleResult MonitorSession::oracle(const SystemTrace& trace,
                                    const SimConfig& sim,
                                    std::size_t max_nodes) const {
  SimRuntime runtime(trace, &artifact_->registry(), sim);
  runtime.run();
  Computation comp(runtime.history());
  return oracle_evaluate(comp, artifact_->automaton(), max_nodes);
}

}  // namespace decmon
