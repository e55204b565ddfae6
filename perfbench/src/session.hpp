// One monitored session as the benchmark runs it: a generated trace, a
// runtime built through the library's public API, decentralized monitors
// attached (optionally through the timing decorators of layers.hpp), and
// everything the benchmark reads back afterwards. Also the verdict checks
// that feed the failure count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "decmon/decmon.hpp"
#include "layers.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0);

/// SplitMix64 finalizer: the benchmark derives every input seed from the
/// --seed argument through it.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// CPU time (user + system) and voluntary context switches so far, from
/// getrusage: of the whole process (all threads), or of the calling thread.
struct CpuUsage {
  double cpu_ms = 0.0;
  std::int64_t voluntary_switches = 0;
  static CpuUsage now();
  static CpuUsage this_thread();
};

/// Peak resident set (VmHWM) of this process in MB.
double peak_rss_mb();

/// Restrict the calling thread, and every thread it starts later, to
/// `cpu`. On a virtual machine whose host is oversubscribed, work spread
/// over several vCPUs waits whenever the hypervisor deschedules one of
/// them: socket-n3's events/s swung 2x between runs on 4 vCPUs and by under
/// 1% on one.
void pin_this_thread(int cpu);

/// The CPU the caller runs on and another one it may use (the same one
/// when it may use no other).
std::pair<int, int> two_cpus();

/// Keeps the CPU out of idle while it lives: a SCHED_IDLE thread spins, so
/// every normal thread preempts it at once. On a virtual machine an idle
/// vCPU is halted, and waking it again (a timer, a condition variable)
/// takes the hypervisor milliseconds; the open-loop workload would measure
/// that instead of the service. Reports the CPU it burned, which callers
/// subtract from process CPU time.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  /// Stop and join the spinner; returns the CPU milliseconds it used.
  double stop();

 private:
  std::atomic<bool> stop_{false};
  double cpu_ms_ = 0.0;
  std::thread thread_;
};

struct SessionInput {
  decmon::paper::Property property = decmon::paper::Property::kD;
  decmon::SharedProperty artifact;
  decmon::SystemTrace trace;
  std::uint64_t runtime_seed = 1;
};

/// The trace of one paper cell (properties A-F, Chapter 5 parameters), with
/// a path to a final state forced as the thesis's case study does.
decmon::SystemTrace make_trace(decmon::paper::Property property, int n,
                               double comm_mu, std::uint64_t seed);

struct SessionResult {
  decmon::paper::Property property = decmon::paper::Property::kD;
  double setup_ms = 0.0;  ///< runtime + monitor construction (socket: mesh)
  double run_ms = 0.0;    ///< runtime.run(): start until every monitor drained
  double cpu_ms = 0.0;    ///< process CPU during run()
  std::int64_t voluntary_switches = 0;  ///< during run()
  std::uint64_t events = 0;             ///< program events monitored
  std::uint64_t monitor_messages = 0;   ///< monitor frames on the wire
  std::uint64_t wire_bytes = 0;
  std::uint64_t coalesced_frames = 0;   ///< socket only
  std::uint64_t partial_writes = 0;     ///< socket only
  decmon::SystemVerdict verdict;
  LayerCounters layers;  ///< traced runs only
  /// The recorded computation, kept only when the session will be checked.
  std::vector<std::vector<decmon::Event>> history;
};

/// SimRuntime posture: CoalesceMode::kTransit.
decmon::SimConfig sim_config(std::uint64_t seed);
/// SocketRuntime posture: loopback TCP, batched, 32 KiB socket buffers,
/// time_scale 0.
decmon::SocketConfig socket_config(std::uint64_t seed);

/// Both runners use default MonitorOptions.
SessionResult run_sim(const SessionInput& in, bool traced, bool keep_history);
SessionResult run_socket(const SessionInput& in, bool traced,
                         bool keep_history);

// -- verdict checks: each returns "" on success, else what went wrong --

/// The correctness contract against the lattice oracle: every oracle
/// verdict is among the monitors', and every definite monitor verdict is
/// among the oracle's (the monitors may add '?').
std::string oracle_contract(const std::set<decmon::Verdict>& oracle,
                            const std::set<decmon::Verdict>& monitors);

/// The contract on the session's recorded computation.
std::string check_oracle(const SessionResult& r,
                         const decmon::MonitorAutomaton& automaton);

/// Definite verdicts must equal those of the decentralized monitors
/// replayed over the same recorded computation: two runs that both meet the
/// oracle contract on one computation agree on definite verdicts. Used where
/// the oracle is too expensive (socket computations at time_scale 0 have
/// millions of consistent cuts).
std::string check_replay(const SessionResult& r,
                         const decmon::MonitorSession& session,
                         std::uint64_t seed);

/// Traced and untraced runs of one simulated session must count the same.
std::string check_same_counts(const SessionResult& untraced,
                              const SessionResult& traced);

std::string verdict_text(const std::set<decmon::Verdict>& verdicts);

}  // namespace perfbench
