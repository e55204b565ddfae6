// Differential schedule fuzzing: sweep seeded fault configurations over
// property/process-count cells and check every decentralized run against the
// lattice oracle on the recorded history. Each cell alternates between the
// deterministic simulator (online monitoring under a faulted SimRuntime) and
// the replay runtime (offline monitoring of a recorded computation under a
// faulted schedule); both are pure functions of their seeds, so every
// contract violation yields a self-contained text repro that re-runs to the
// identical verdict sets (see run_repro). Used by the schedule_fuzz tests
// and the tools/fuzz_schedules driver.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <set>
#include <string>
#include <vector>

#include "decmon/automata/monitor_automaton.hpp"
#include "decmon/core/properties.hpp"
#include "decmon/distributed/faulty_network.hpp"
#include "decmon/lattice/oracle.hpp"
#include "decmon/monitor/crash_injector.hpp"

namespace decmon::fuzz {

/// Which execution substrate a fuzz case (or a repro) runs on.
enum class Mode { kSim, kReplay };

std::string to_string(Mode mode);

/// One property/process-count cell of the sweep grid.
struct Cell {
  paper::Property property = paper::Property::kA;
  int num_processes = 2;
};

/// The CI-smoke grid: ten cells spanning the G-shaped and F-shaped
/// properties at two to four processes -- A/3, B/2, E/3, C/3, D/3, F/3,
/// D/2, F/2, D/4 and F/4.
std::vector<Cell> default_cells();

struct Options {
  std::vector<Cell> cells = default_cells();
  /// Seeded fault configs per cell (each is one full monitored run checked
  /// against the oracle).
  int cases_per_cell = 70;
  std::uint64_t seed = 1;
  /// Workload size; kept small so the oracle lattice stays tractable.
  int internal_events = 5;
  double comm_mu = 4.0;
  std::size_t oracle_max_nodes = kOracleMaxNodes;
  /// Injected-bug self-test: violate the bounded-loss fault model (dropped
  /// messages are swallowed, not redelivered). The sweep must then report
  /// violations -- this is how the harness proves it can catch bugs.
  bool lose_dropped = false;
  /// Stack a ReliableChannel between the monitors and the faulty network in
  /// every case (implied by `crash`; required for `lossy` runs to pass).
  bool reliable_channel = false;
  /// Give every sampled fault config a true-loss rate (FaultConfig::
  /// lose_prob): messages are permanently swallowed, no redelivery. Without
  /// reliable_channel this is another injected-bug self-test -- the sweep
  /// must then report violations.
  bool lossy = false;
  /// Crash-schedule mode: every case additionally kills one seeded monitor
  /// node at a seeded delivery boundary and later restarts it from its last
  /// checkpoint (implies the reliable channel). The soundness contract is
  /// checked unchanged: recovery must be invisible except as added time.
  bool crash = false;
  /// Run every case in the streaming posture (MonitorOptions::gc_interval)
  /// with an aggressive GC cadence, so trimming races every fault class.
  /// Ignored when `crash` is set: checkpoint rewind against already-trimmed
  /// peer histories is only covered by the crash contract, not this sweep's.
  bool gc = false;
  /// Stop materializing repro blobs after this many violations (the counts
  /// keep accumulating).
  int max_repros = 8;
  /// Invoked with a partial repro blob (seeds and config, no outcome or
  /// event log) as each case starts. The fuzz tool's wall-clock watchdog
  /// publishes the last blob when a case hangs.
  std::function<void(const std::string&)> on_case_start;
};

/// One contract violation, with a self-contained deterministic repro.
struct Violation {
  paper::Property property = paper::Property::kA;
  int num_processes = 0;
  Mode mode = Mode::kSim;
  /// "incompleteness" | "unsound-verdict" | "unfinished" | "token-lost".
  std::string kind;
  std::string detail;
  /// Text blob for run_repro; empty past Options::max_repros.
  std::string repro;
};

struct Report {
  std::uint64_t cases = 0;
  std::uint64_t skipped = 0;  ///< oracle exceeded max_nodes (counted, not run)
  std::uint64_t violation_count = 0;
  FaultStats faults;       ///< aggregated over all cases
  ChannelStats channel;    ///< aggregated reliable-channel traffic
  CrashStats crash;        ///< aggregated crash/checkpoint activity
  std::vector<Violation> violations;  ///< at most max_repros entries
  bool ok() const { return violation_count == 0; }
};

/// Run the sweep. `progress` (optional) receives one line per cell.
Report run_sweep(const Options& options, std::ostream* progress = nullptr);

/// Outcome of re-running a repro blob.
struct ReproOutcome {
  bool violation = false;
  std::string kind;
  std::string detail;
  std::set<Verdict> oracle;
  std::set<Verdict> monitor;
  bool all_finished = false;
};

/// Re-run a repro produced by run_sweep. Deterministic: the same blob always
/// yields the same ReproOutcome (sim repros regenerate the run from seeds;
/// replay repros re-drive the embedded event log through ReplayRuntime).
/// Throws std::runtime_error on a malformed blob.
ReproOutcome run_repro(const std::string& repro_text);

}  // namespace decmon::fuzz
