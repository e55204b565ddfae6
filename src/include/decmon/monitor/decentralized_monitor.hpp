// DecentralizedMonitor: the full monitoring layer -- one MonitorProcess
// replica per program process, wired to a runtime through MonitorHooks /
// MonitorNetwork. This is what a user attaches to a SimRuntime or
// ThreadRuntime to monitor a property.
#pragma once

#include <atomic>
#include <memory>
#include <set>
#include <vector>

#include "decmon/distributed/runtime.hpp"
#include "decmon/monitor/monitor_process.hpp"
#include "decmon/monitor/predicate.hpp"
#include "decmon/monitor/stats.hpp"

namespace decmon {

/// Aggregated outcome of a monitored run.
struct SystemVerdict {
  /// Union of verdict sets over all monitors (the set Lambda of Ch. 3).
  std::set<Verdict> verdicts;
  /// Union of automaton states held by final global views.
  std::set<int> states;
  bool all_finished = false;
  double first_violation_time = -1.0;
  double first_satisfaction_time = -1.0;
  MonitorStats aggregate;
  std::vector<MonitorStats> per_monitor;

  bool violated() const { return verdicts.count(Verdict::kFalse) > 0; }
  bool satisfied() const { return verdicts.count(Verdict::kTrue) > 0; }
};

class DecentralizedMonitor final : public MonitorHooks {
 public:
  /// `initial_letters[p]`: process p's initial local letter (every monitor
  /// replica receives the full initial global state, Alg. 1). The handle
  /// keeps the property's owning artifact alive for the monitor's lifetime.
  DecentralizedMonitor(std::shared_ptr<const CompiledProperty> property,
                       MonitorNetwork* network,
                       std::vector<AtomSet> initial_letters,
                       MonitorOptions options = {});

  // MonitorHooks:
  void on_local_event(int proc, const Event& event, double now) override;
  void on_local_termination(int proc, double now) override;
  /// Takes a PayloadFrame, the only form monitors send; any other payload
  /// throws std::invalid_argument.
  void on_monitor_message(MonitorMessage msg, double now) override;

  int num_processes() const { return static_cast<int>(monitors_.size()); }
  MonitorProcess& monitor(int i) {
    return *monitors_.at(static_cast<std::size_t>(i));
  }
  const MonitorProcess& monitor(int i) const {
    return *monitors_.at(static_cast<std::size_t>(i));
  }

  bool all_finished() const;
  SystemVerdict result() const;

 private:
  std::vector<std::unique_ptr<MonitorProcess>> monitors_;
  /// First violation / satisfaction times (-1 = none yet). Atomic: every
  /// replica's verdict callback writes them, and under ThreadRuntime and
  /// SocketRuntime the replicas run on different node threads.
  std::atomic<double> first_violation_{-1.0};
  std::atomic<double> first_satisfaction_{-1.0};
};

/// Convenience: build initial letters from initial local states.
std::vector<AtomSet> initial_letters_of(const AtomRegistry& registry,
                                        const std::vector<LocalState>& states);

}  // namespace decmon
