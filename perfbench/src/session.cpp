#include "session.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>

namespace perfbench {

using namespace decmon;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

CpuUsage usage_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return CpuUsage{ms(ru.ru_utime) + ms(ru.ru_stime),
                  static_cast<std::int64_t>(ru.ru_nvcsw)};
}

}  // namespace

CpuUsage CpuUsage::now() { return usage_of(RUSAGE_SELF); }

CpuUsage CpuUsage::this_thread() { return usage_of(RUSAGE_THREAD); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void pin_this_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

std::pair<int, int> two_cpus() {
  const int first = sched_getcpu();
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (cpu != first && CPU_ISSET(cpu, &allowed)) return {first, cpu};
  }
  return {first, first};
}

KeepAwake::KeepAwake()
    : thread_([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        const CpuUsage cpu0 = CpuUsage::this_thread();
        while (!stop_.load(std::memory_order_relaxed)) {
        }
        cpu_ms_ = CpuUsage::this_thread().cpu_ms - cpu0.cpu_ms;
      }) {}

KeepAwake::~KeepAwake() { stop(); }

double KeepAwake::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  return cpu_ms_;
}

SystemTrace make_trace(paper::Property property, int n, double comm_mu,
                       std::uint64_t seed) {
  SystemTrace trace =
      generate_trace(paper::experiment_params(property, n, seed, comm_mu));
  force_final_all_true(trace);
  return trace;
}

namespace {

/// Attach monitors to `runtime` (through the decorators when traced), run
/// it, and read back what every session reports.
template <typename Runtime>
void monitored_run(Runtime& runtime, const SessionInput& in, bool traced,
                   bool keep_history, TimeBase base, SessionResult* out) {
  const int n = in.trace.num_processes();
  LayerClock clock(n, base);
  TimedNetwork timed_net(&runtime, &clock);
  DecentralizedMonitor monitors(
      property_handle(in.artifact),
      traced ? static_cast<MonitorNetwork*>(&timed_net) : &runtime,
      initial_letters_of(in.artifact->registry(), runtime.initial_states()));
  TimedHooks timed_hooks(&monitors, &clock);
  runtime.set_hooks(traced ? static_cast<MonitorHooks*>(&timed_hooks)
                           : &monitors);
  clock.reset();

  const CpuUsage cpu0 = CpuUsage::now();
  const auto t0 = Clock::now();
  runtime.run();
  out->run_ms = ms_since(t0);
  const CpuUsage cpu1 = CpuUsage::now();
  out->cpu_ms = cpu1.cpu_ms - cpu0.cpu_ms;
  out->voluntary_switches =
      cpu1.voluntary_switches - cpu0.voluntary_switches;

  out->property = in.property;
  out->events = runtime.program_events();
  out->verdict = monitors.result();
  if (traced) out->layers = clock.total();
  if (keep_history) out->history = runtime.history();
}

}  // namespace

SimConfig sim_config(std::uint64_t seed) {
  SimConfig config;
  config.coalesce = CoalesceMode::kTransit;
  config.seed = seed;
  return config;
}

SocketConfig socket_config(std::uint64_t seed) {
  SocketConfig config;
  config.time_scale = 0.0;
  config.batch = true;
  config.sndbuf = 32 * 1024;
  config.rcvbuf = 32 * 1024;
  config.seed = seed;
  return config;
}

SessionResult run_sim(const SessionInput& in, bool traced, bool keep_history) {
  SessionResult out;
  const auto t0 = Clock::now();
  SimRuntime runtime(in.trace, &in.artifact->registry(),
                     sim_config(in.runtime_seed));
  out.setup_ms = ms_since(t0);
  monitored_run(runtime, in, traced, keep_history, TimeBase::kWall, &out);
  out.monitor_messages = runtime.monitor_messages_sent();
  out.wire_bytes = out.verdict.aggregate.bytes_sent;
  return out;
}

SessionResult run_socket(const SessionInput& in, bool traced,
                         bool keep_history) {
  SessionResult out;
  const auto t0 = Clock::now();
  SocketRuntime runtime(in.trace, &in.artifact->registry(),
                        socket_config(in.runtime_seed));
  out.setup_ms = ms_since(t0);
  // The node threads share one CPU (pin_this_thread): time their spans in
  // thread CPU time.
  monitored_run(runtime, in, traced, keep_history, TimeBase::kThreadCpu,
                &out);
  out.monitor_messages = runtime.wire_frames();
  out.wire_bytes = runtime.wire_bytes();
  out.coalesced_frames = runtime.coalesced_frames();
  out.partial_writes = runtime.partial_writes();
  return out;
}

std::string verdict_text(const std::set<Verdict>& verdicts) {
  std::string s = "{";
  for (Verdict v : verdicts) {
    if (s.size() > 1) s += ",";
    s += to_string(v);
  }
  return s + "}";
}

std::string oracle_contract(const std::set<Verdict>& oracle,
                            const std::set<Verdict>& monitors) {
  for (Verdict v : oracle) {
    if (!monitors.count(v)) {
      return "incomplete: oracle " + verdict_text(oracle) + ", monitors " +
             verdict_text(monitors);
    }
  }
  for (Verdict v : monitors) {
    if (v != Verdict::kUnknown && !oracle.count(v)) {
      return "unsound: oracle " + verdict_text(oracle) + ", monitors " +
             verdict_text(monitors);
    }
  }
  return "";
}

std::string check_oracle(const SessionResult& r,
                         const MonitorAutomaton& automaton) {
  const OracleResult oracle = oracle_evaluate(
      Computation(r.history), automaton, std::size_t{1} << 22);
  return oracle_contract(oracle.verdicts, r.verdict.verdicts);
}

namespace {

std::set<Verdict> definite(const std::set<Verdict>& verdicts) {
  std::set<Verdict> out = verdicts;
  out.erase(Verdict::kUnknown);
  return out;
}

}  // namespace

std::string check_replay(const SessionResult& r, const MonitorSession& session,
                         std::uint64_t seed) {
  const RunResult replay = session.replay(Computation(r.history), seed);
  if (!replay.verdict.all_finished) return "replay did not drain";
  if (definite(replay.verdict.verdicts) != definite(r.verdict.verdicts)) {
    return "definite verdicts differ from replay: run " +
           verdict_text(r.verdict.verdicts) + ", replay " +
           verdict_text(replay.verdict.verdicts);
  }
  return "";
}

std::string check_same_counts(const SessionResult& a, const SessionResult& b) {
  const MonitorStats& x = a.verdict.aggregate;
  const MonitorStats& y = b.verdict.aggregate;
  if (a.events != b.events || a.monitor_messages != b.monitor_messages ||
      a.wire_bytes != b.wire_bytes || x.token_hops != y.token_hops ||
      x.global_views_created != y.global_views_created ||
      a.verdict.verdicts != b.verdict.verdicts) {
    return "traced run counts differ from the untraced run";
  }
  return "";
}

}  // namespace perfbench
