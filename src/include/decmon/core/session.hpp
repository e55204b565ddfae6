// MonitorSession: the library's front door. Bundles an atom registry, a
// property (LTL text, formula, or pre-built monitor automaton) and runs
// monitored executions over the simulation runtime, collecting the metrics
// the paper's evaluation reports.
//
// Typical use:
//   auto session = decmon::MonitorSession::from_text(
//       "G((P0.p) U (P1.p && P2.p))", decmon::paper::make_registry(3));
//   decmon::RunResult r = session.run(trace);
//   if (r.verdict.violated()) ...
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "decmon/automata/ltl3_monitor.hpp"
#include "decmon/distributed/sim_runtime.hpp"
#include "decmon/distributed/trace.hpp"
#include "decmon/lattice/oracle.hpp"
#include "decmon/monitor/decentralized_monitor.hpp"
#include "decmon/monitor/predicate.hpp"
#include "decmon/monitor/property_registry.hpp"

namespace decmon {

/// Outcome + metrics of one monitored run (the paper's measurements, §5.2).
struct RunResult {
  SystemVerdict verdict;

  std::uint64_t program_events = 0;    ///< internal + send + receive
  std::uint64_t app_messages = 0;      ///< program messages on the wire
  std::uint64_t monitor_messages = 0;  ///< monitoring messages on the wire
  double program_end = 0.0;            ///< last program activity (s)
  double monitor_end = 0.0;            ///< last monitor activity (s)

  /// Total global views created across all monitors (Fig. 5.8's metric);
  /// for a centralized run, the consistent cuts its walk explored.
  std::uint64_t total_global_views = 0;
  /// Centralized runs only: the widest cut layer the central node held.
  std::uint64_t peak_layer_cuts = 0;

  /// Average events queued behind outstanding tokens (Fig. 5.7's metric).
  double average_delayed_events = 0.0;

  /// The paper's normalized delay formula (§5.3):
  /// ((MonitorExtraTime / ProgramTime) * 100) / TotalGlobalViews.
  double delay_time_percent_per_view() const;
};

class MonitorSession {
 public:
  /// Own the registry and the monitor automaton (wrapped into a private
  /// PropertyArtifact; the artifact is not shared with anyone else).
  MonitorSession(AtomRegistry registry, MonitorAutomaton automaton);

  /// Share an existing immutable artifact -- zero-copy admission: no
  /// registry/automaton/property is built or copied, the session only bumps
  /// the artifact's refcount (see paper::shared_property). The artifact
  /// outlives the session even if the synthesis memo is cleared meanwhile.
  explicit MonitorSession(SharedProperty artifact);

  /// Parse + synthesize from LTL text.
  static MonitorSession from_text(const std::string& property,
                                  AtomRegistry registry,
                                  const SynthesisOptions& options = {});

  const AtomRegistry& registry() const { return artifact_->registry(); }
  const MonitorAutomaton& automaton() const { return artifact_->automaton(); }
  const CompiledProperty& property() const { return artifact_->property(); }

  /// Run the trace under the deterministic simulator with decentralized
  /// monitors attached.
  RunResult run(const SystemTrace& trace, const SimConfig& sim = {},
                const MonitorOptions& options = {}) const;

  /// Same workload, centralized baseline monitor (§6.2.3.1).
  RunResult run_centralized(const SystemTrace& trace,
                            const SimConfig& sim = {},
                            int central_node = 0) const;

  /// Offline monitoring (§6.2.1): replay the decentralized monitors over a
  /// recorded computation (see decmon/lattice/event_log.hpp) under the
  /// asynchronous delivery schedule selected by `seed`. Event letters must
  /// match this session's registry (relabel() after loading a log).
  RunResult replay(const Computation& computation, std::uint64_t seed = 1,
                   const MonitorOptions& options = {}) const;

  /// Ground truth: run the program unmonitored, then evaluate the full
  /// lattice oracle over the recorded computation. Exponential; intended
  /// for tests and small studies.
  OracleResult oracle(const SystemTrace& trace, const SimConfig& sim = {},
                      std::size_t max_nodes = kOracleMaxNodes) const;

 private:
  // Heap-pinned so the CompiledProperty's internal pointers survive moves;
  // shared so admission of a known property copies nothing.
  SharedProperty artifact_;
};

}  // namespace decmon
