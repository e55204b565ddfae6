#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "session.hpp"

namespace perfbench {

using namespace decmon;
using paper::Property;

namespace {

enum class Kind { kSim, kSocket, kService };

struct Workload {
  const char* name;
  Kind kind;
  std::vector<Property> cycle;  ///< properties, assigned round-robin
  int n;
  double comm_mu;
  /// Verdict checks: session i is checked when i % check_stride equals a
  /// seeded offset, for at most check_cap sessions per run.
  int check_stride;
  int check_cap;
  double rate = 0.0;  ///< open-loop sessions/s (service only)
  int shards = 0;     ///< service only
};

// sim-tokens cycles D, F, F rather than strictly alternating: D n5 sessions
// take 10-80 ms and F n5 sessions 140-260 ms, so with a 50/50 mix the median
// would fall in the gap between the two modes and swing with the seed. With
// D, F, F the median and p90 both lie inside F's mode.
//
// Sessions run on one CPU (pin_this_thread). service-open offers 100
// sessions/s, about 35% of that CPU (A-F n3 sessions average 3.4 ms with
// exact wire accounting). Shard 1 receives 71% of the work (B, D and F by
// id % 2), so queueing and stealing are exercised.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"sim-tokens", Kind::kSim, {Property::kD, Property::kF, Property::kF},
       5, 3.0, 16, 6},
      {"sim-events", Kind::kSim, {Property::kB, Property::kE}, 5, 3.0, 16, 6},
      {"socket-n3", Kind::kSocket,
       {Property::kA, Property::kD, Property::kF}, 3, 1.5, 4, 64},
      {"service-open", Kind::kService,
       {Property::kA, Property::kB, Property::kC, Property::kD, Property::kE,
        Property::kF},
       3, 3.0, 16, 128, /*rate=*/50.0, /*shards=*/2},
  };
  return table;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Linear-interpolated quantile of `values` (sorted in place).
double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Every per-layer metric, so a traced run always reports all of them; a
/// layer that a workload does not run through stays 0.
const char* const kLayerMetrics[] = {
    "monitor.token.ns_per_call",
    "monitor.token.calls_per_event",
    "monitor.token.self_share",
    "monitor.token_hops_per_event",
    "monitor.views_per_event",
    "monitor.peak_views",
    "monitor.event.ns_per_call",
    "monitor.event.self_share",
    "monitor.units_per_frame",
    "distributed.send.ns_per_call",
    "distributed.send.share",
    "distributed.sim.self_share",
    "distributed.socket.cpu_ms_per_run",
    "distributed.socket.idle_frac",
    "distributed.socket.wakeups_per_event",
    "distributed.socket.self_cpu_share",
    "distributed.socket.coalesced_frames_per_run",
    "distributed.socket.partial_writes_per_run",
    "distributed.socket.mesh_setup_ms",
    "service.queue_ms.p50",
    "service.queue_ms.p99",
    "service.exec_ms.p50",
    "service.exec_ms.p99",
    "service.latency_ms.p99",
    "service.busy_frac",
    "service.stolen_frac",
    "service.submit_us.p50",
    "core.admission_ms",
    "bench.lag_ms.p99",
    "bench.lag_ms.max",
    "bench.trace_overhead",
};

/// Sums over the sessions of one posture (untraced or traced).
struct Totals {
  std::uint64_t sessions = 0;
  double run_ms = 0.0;
  double setup_ms = 0.0;
  double cpu_ms = 0.0;
  std::int64_t voluntary_switches = 0;
  std::uint64_t events = 0;
  std::uint64_t monitor_messages = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t token_hops = 0;
  std::uint64_t views_created = 0;
  std::uint64_t peak_views = 0;
  std::uint64_t coalesced_frames = 0;
  std::uint64_t partial_writes = 0;
  LayerCounters layers;
  std::vector<double> latency_ms;

  void add(const SessionResult& r) {
    ++sessions;
    run_ms += r.run_ms;
    setup_ms += r.setup_ms;
    cpu_ms += r.cpu_ms;
    voluntary_switches += r.voluntary_switches;
    events += r.events;
    monitor_messages += r.monitor_messages;
    wire_bytes += r.wire_bytes;
    token_hops += r.verdict.aggregate.token_hops;
    views_created += r.verdict.aggregate.global_views_created;
    peak_views += r.verdict.aggregate.peak_global_views;
    coalesced_frames += r.coalesced_frames;
    partial_writes += r.partial_writes;
    layers += r.layers;
    latency_ms.push_back(r.run_ms);
  }
};

/// Marks sessions failed (once each) and keeps the first few reasons.
class FailureLog {
 public:
  explicit FailureLog(Report* report) : report_(report) {}
  void fail(std::uint64_t session, const std::string& why) {
    if (why.empty() || !failed_.insert(session).second) return;
    ++report_->failed;
    if (report_->failures.size() < 8) {
      report_->failures.push_back("session " + std::to_string(session) +
                                  ": " + why);
    }
  }

 private:
  Report* report_;
  std::set<std::uint64_t> failed_;
};

std::map<Property, SharedProperty> admit(const Workload& w,
                                         double* admission_ms) {
  std::map<Property, SharedProperty> artifacts;
  for (Property p : w.cycle) {
    if (artifacts.count(p)) continue;
    const auto t0 = Clock::now();
    artifacts[p] = paper::shared_property(p, w.n, paper::make_registry(w.n));
    *admission_ms += ms_since(t0);
  }
  return artifacts;
}

/// Per-layer metrics of decorated runs. Sessions run on one CPU
/// (pin_this_thread), so shares are of run() wall time.
void put_layer_metrics(const Totals& traced, bool sim_runtime,
                       Report* report) {
  auto& m = report->metrics;
  const LayerCounters& c = traced.layers;
  const double wall_ns = traced.run_ms * 1e6;
  const double events = static_cast<double>(traced.events);
  m["monitor.token.ns_per_call"] =
      ratio(static_cast<double>(c.token_self_ns()), c.token_calls);
  m["monitor.token.calls_per_event"] = ratio(c.token_calls, events);
  m["monitor.token.self_share"] =
      ratio(static_cast<double>(c.token_self_ns()), wall_ns);
  m["monitor.token_hops_per_event"] = ratio(traced.token_hops, events);
  m["monitor.views_per_event"] = ratio(traced.views_created, events);
  m["monitor.peak_views"] = ratio(traced.peak_views, traced.sessions);
  m["monitor.event.ns_per_call"] =
      ratio(static_cast<double>(c.event_self_ns()), c.event_calls);
  m["monitor.event.self_share"] =
      ratio(static_cast<double>(c.event_self_ns()), wall_ns);
  m["monitor.units_per_frame"] = ratio(c.send_units, c.send_calls);
  m["distributed.send.ns_per_call"] = ratio(c.send_ns, c.send_calls);
  m["distributed.send.share"] = ratio(c.send_ns, wall_ns);
  const double monitor_self_ms =
      static_cast<double>(c.token_self_ns() + c.event_self_ns()) / 1e6;
  m["distributed.socket.self_cpu_share"] =
      ratio(traced.cpu_ms - monitor_self_ms, traced.cpu_ms);
  if (sim_runtime) {
    m["distributed.sim.self_share"] =
        ratio(wall_ns - static_cast<double>(c.hook_ns()), wall_ns);
  }
}

/// The decorators must account for the whole run: every send nested in a
/// hook, and the layer shares plus the runtime's self share summing to the
/// run's wall time.
std::string check_layer_accounting(const Report& report,
                                   const LayerCounters& c) {
  if (c.send_outside_hooks != 0) return "sends outside any hook";
  const auto& m = report.metrics;
  const double sum = m.at("monitor.token.self_share") +
                     m.at("monitor.event.self_share") +
                     m.at("distributed.send.share") +
                     m.at("distributed.sim.self_share");
  if (std::fabs(sum - 1.0) > 0.02 || m.at("distributed.sim.self_share") < 0) {
    return "layer shares sum to " + std::to_string(sum) + " of wall";
  }
  return "";
}

void put_cpu_metrics(double cpu_ms, std::int64_t switches, double wall_ms,
                     std::uint64_t sessions, std::uint64_t events,
                     Report* report) {
  auto& m = report->metrics;
  m["distributed.socket.cpu_ms_per_run"] = ratio(cpu_ms, sessions);
  m["distributed.socket.idle_frac"] = 1.0 - ratio(cpu_ms, wall_ms);
  m["distributed.socket.wakeups_per_event"] =
      ratio(static_cast<double>(switches), events);
}

// ---------------------------------------------------------------------------
// Closed loop: sim-tokens, sim-events, socket-n3. One session at a time,
// each on a freshly generated trace; traced runs execute every session twice
// (untraced and traced, alternating which goes first) so that counts and
// speed compare on identical inputs.
// ---------------------------------------------------------------------------

Report run_closed_loop(const Workload& w, const RunOptions& opt) {
  pin_this_thread(two_cpus().first);
  Report report;
  FailureLog log(&report);
  double admission_ms = 0.0;
  const auto artifacts = admit(w, &admission_ms);
  const bool sim = w.kind == Kind::kSim;
  auto run = sim ? run_sim : run_socket;

  Totals plain, traced;
  std::vector<std::pair<std::uint64_t, SessionResult>> to_check;
  const std::uint64_t check_offset =
      mix(opt.seed, 0xC4EC) % static_cast<std::uint64_t>(w.check_stride);
  const auto start = Clock::now();
  for (std::uint64_t i = 0; ms_since(start) < opt.seconds * 1e3; ++i) {
    const Property p = w.cycle[i % w.cycle.size()];
    SessionInput in{p, artifacts.at(p),
                    make_trace(p, w.n, w.comm_mu, mix(opt.seed, i)),
                    mix(opt.seed ^ 0x5EEDull, i)};
    const bool keep = i % static_cast<std::uint64_t>(w.check_stride) ==
                          check_offset &&
                      to_check.size() < static_cast<std::size_t>(w.check_cap);
    ++report.attempted;
    try {
      SessionResult untraced;
      if (opt.traced) {
        SessionResult with;
        if (i % 2 == 0) {
          untraced = run(in, false, keep);
          with = run(in, true, false);
        } else {
          with = run(in, true, false);
          untraced = run(in, false, keep);
        }
        if (!with.verdict.all_finished) log.fail(i, "traced run did not drain");
        if (sim) log.fail(i, check_same_counts(untraced, with));
        traced.add(with);
      } else {
        untraced = run(in, false, keep);
      }
      if (opt.tamper) opt.tamper(untraced);
      if (!untraced.verdict.all_finished) log.fail(i, "monitors did not drain");
      plain.add(untraced);
      if (keep) to_check.emplace_back(i, std::move(untraced));
    } catch (const std::exception& e) {
      log.fail(i, e.what());
    }
  }
  const double rss_mb = peak_rss_mb();

  // Verdict checks, outside the measured window.
  for (auto& [i, r] : to_check) {
    try {
      const SharedProperty& art = artifacts.at(r.property);
      if (sim) {
        log.fail(i, check_oracle(r, art->automaton()));
      } else {
        log.fail(i, check_replay(r, MonitorSession(art), mix(opt.seed, i)));
      }
    } catch (const std::exception& e) {
      log.fail(i, std::string("check threw: ") + e.what());
    }
  }

  auto& m = report.metrics;
  if (!opt.traced) {
    m["events_per_s"] = ratio(static_cast<double>(plain.events),
                              plain.run_ms / 1e3);
    m["latency_ms.p50"] = quantile(plain.latency_ms, 0.50);
    m["latency_ms.p90"] = quantile(plain.latency_ms, 0.90);
    m["monitor_msgs_per_event"] = ratio(plain.monitor_messages, plain.events);
    m["wire_bytes_per_event"] = ratio(plain.wire_bytes, plain.events);
    m["peak_rss_mb"] = rss_mb;
    return report;
  }

  for (const char* name : kLayerMetrics) m[name] = 0.0;
  put_layer_metrics(traced, sim, &report);
  put_cpu_metrics(plain.cpu_ms, plain.voluntary_switches, plain.run_ms,
                  plain.sessions, plain.events, &report);
  if (sim) {
    log.fail(report.attempted, check_layer_accounting(report, traced.layers));
  } else {
    m["distributed.socket.coalesced_frames_per_run"] =
        ratio(plain.coalesced_frames, plain.sessions);
    m["distributed.socket.partial_writes_per_run"] =
        ratio(plain.partial_writes, plain.sessions);
    m["distributed.socket.mesh_setup_ms"] =
        ratio(plain.setup_ms, plain.sessions);
  }
  m["core.admission_ms"] = admission_ms;
  m["bench.trace_overhead"] = 1.0 - ratio(plain.run_ms, traced.run_ms);
  return report;
}

// ---------------------------------------------------------------------------
// Open loop: service-open. One generator thread submits a seeded Poisson
// stream for the whole window, never waiting on completions; each session is
// timed from its scheduled send time.
// ---------------------------------------------------------------------------

service::SessionSpec service_spec(const Workload& w, std::uint64_t seed,
                                  std::uint64_t k) {
  service::SessionSpec spec;
  spec.property = w.cycle[k % w.cycle.size()];
  spec.num_processes = w.n;
  spec.trace_seed = mix(seed, k);
  spec.comm_mu = w.comm_mu;
  spec.sim = sim_config(mix(seed ^ 0x5EEDull, k));
  return spec;
}

/// Poisson arrival times (seconds from the start) covering [0, seconds).
std::vector<double> arrival_schedule(double rate, double seconds,
                                     std::uint64_t seed) {
  std::vector<double> due;
  double t = 0.0;
  for (std::uint64_t k = 0;; ++k) {
    const double u =
        (static_cast<double>(mix(seed ^ 0xA881ull, k) >> 11) + 1.0) /
        9007199254740993.0;  // (0, 1]
    t += -std::log(u) / rate;
    if (t >= seconds) return due;
    due.push_back(t);
  }
}

Report run_open_loop(const Workload& w, const RunOptions& opt) {
  Report report;
  report.offered_rate = w.rate;
  FailureLog log(&report);
  double admission_ms = 0.0;
  const auto artifacts = admit(w, &admission_ms);

  // The generator, the shards and a KeepAwake share one CPU.
  pin_this_thread(two_cpus().first);
  service::ServiceConfig config;
  config.num_shards = w.shards;
  service::MonitoringService svc(config);
  KeepAwake awake;

  const std::vector<double> due_s =
      arrival_schedule(w.rate, opt.seconds, opt.seed);
  std::vector<double> lag_ms(due_s.size()), submit_us(due_s.size());
  const CpuUsage cpu0 = CpuUsage::now();
  const CpuUsage generator0 = CpuUsage::this_thread();
  const auto start = Clock::now();
  for (std::size_t k = 0; k < due_s.size(); ++k) {
    const service::SessionSpec spec = service_spec(w, opt.seed, k);
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due_s[k]));
    std::this_thread::sleep_until(due);
    const auto called = Clock::now();
    svc.submit(spec);
    lag_ms[k] = std::chrono::duration<double, std::milli>(called - due).count();
    submit_us[k] = ms_since(called) * 1e3;
  }
  const CpuUsage generator1 = CpuUsage::this_thread();
  svc.drain();
  const double wall_ms = ms_since(start);
  const double awake_cpu_ms = awake.stop();
  const CpuUsage cpu1 = CpuUsage::now();
  const double rss_mb = peak_rss_mb();
  // The shards' CPU: the process minus the generator and the KeepAwake.
  const double service_cpu_ms = cpu1.cpu_ms - cpu0.cpu_ms -
                                (generator1.cpu_ms - generator0.cpu_ms) -
                                awake_cpu_ms;

  const service::ServiceStats stats = svc.stats();
  const std::vector<service::SessionOutcome> outcomes = svc.outcomes();
  report.attempted = due_s.size();
  if (outcomes.size() != due_s.size()) {
    log.fail(0, "service lost sessions");
  }
  std::vector<double> latency, queue, exec;
  std::uint64_t wire_bytes = 0;
  for (const service::SessionOutcome& oc : outcomes) {
    const std::size_t k = static_cast<std::size_t>(oc.id);
    if (!oc.ok) log.fail(k, oc.error.empty() ? "not ok" : oc.error);
    // Scheduled send -> verdict: generator lag, the submit call (which
    // admits the session), then the service's admission -> verdict.
    latency.push_back(lag_ms[k] + submit_us[k] / 1e3 + oc.latency_ms);
    queue.push_back(oc.queue_ms);
    exec.push_back(oc.latency_ms - oc.queue_ms);
    wire_bytes += oc.result.verdict.aggregate.bytes_sent;
  }

  // Verdict checks: re-run a seeded sample of specs directly through
  // MonitorSession::run; verdict sets and counts must be identical.
  Totals plain, traced;
  const std::uint64_t check_offset =
      mix(opt.seed, 0xC4EC) % static_cast<std::uint64_t>(w.check_stride);
  int checked = 0;
  for (const service::SessionOutcome& oc : outcomes) {
    if (checked >= w.check_cap) break;
    if (oc.id % static_cast<std::uint64_t>(w.check_stride) != check_offset) {
      continue;
    }
    ++checked;
    const service::SessionSpec spec = service_spec(w, opt.seed, oc.id);
    try {
      const SharedProperty& art = artifacts.at(spec.property);
      SessionInput in{spec.property, art,
                      make_trace(spec.property, w.n, w.comm_mu,
                                 spec.trace_seed),
                      spec.sim.seed};
      const RunResult direct =
          MonitorSession(art).run(in.trace, spec.sim, spec.options);
      if (direct.verdict.verdicts != oc.result.verdict.verdicts ||
          direct.program_events != oc.result.program_events ||
          direct.monitor_messages != oc.result.monitor_messages ||
          direct.total_global_views != oc.result.total_global_views) {
        log.fail(oc.id, "service outcome differs from MonitorSession::run: " +
                            verdict_text(oc.result.verdict.verdicts) +
                            " vs " + verdict_text(direct.verdict.verdicts));
      }
      if (opt.traced) {
        // The same sessions through the decorated simulator: the monitor
        // and runtime layers of the service's session mix.
        const SessionResult untraced = run_sim(in, false, false);
        const SessionResult with = run_sim(in, true, false);
        log.fail(oc.id, check_same_counts(untraced, with));
        plain.add(untraced);
        traced.add(with);
      }
    } catch (const std::exception& e) {
      log.fail(oc.id, std::string("check threw: ") + e.what());
    }
  }

  auto& m = report.metrics;
  if (!opt.traced) {
    m["events_per_s"] =
        ratio(static_cast<double>(stats.program_events), wall_ms / 1e3);
    m["latency_ms.p50"] = quantile(latency, 0.50);
    m["latency_ms.p90"] = quantile(latency, 0.90);
    m["monitor_msgs_per_event"] =
        ratio(stats.monitor_messages, stats.program_events);
    m["wire_bytes_per_event"] = ratio(wire_bytes, stats.program_events);
    m["peak_rss_mb"] = rss_mb;
    return report;
  }

  for (const char* name : kLayerMetrics) m[name] = 0.0;
  put_layer_metrics(traced, /*sim_runtime=*/true, &report);
  log.fail(report.attempted, check_layer_accounting(report, traced.layers));
  put_cpu_metrics(service_cpu_ms,
                  (cpu1.voluntary_switches - cpu0.voluntary_switches) -
                      (generator1.voluntary_switches -
                       generator0.voluntary_switches),
                  wall_ms, outcomes.size(), stats.program_events, &report);
  double busy_ms = 0.0;
  for (double b : stats.per_shard_busy_ms) busy_ms += b;
  m["service.queue_ms.p50"] = quantile(queue, 0.50);
  m["service.queue_ms.p99"] = quantile(queue, 0.99);
  m["service.exec_ms.p50"] = quantile(exec, 0.50);
  m["service.exec_ms.p99"] = quantile(exec, 0.99);
  m["service.latency_ms.p99"] = quantile(latency, 0.99);
  m["service.busy_frac"] = ratio(busy_ms, wall_ms * w.shards);
  m["service.stolen_frac"] = ratio(stats.stolen, stats.completed);
  m["service.submit_us.p50"] = quantile(submit_us, 0.50);
  m["core.admission_ms"] = admission_ms;
  m["bench.lag_ms.p99"] = quantile(lag_ms, 0.99);
  m["bench.lag_ms.max"] = lag_ms.empty() ? 0.0 : *std::max_element(
                                                      lag_ms.begin(),
                                                      lag_ms.end());
  m["bench.trace_overhead"] = 1.0 - ratio(plain.run_ms, traced.run_ms);
  return report;
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.emplace_back(w.name);
  return names;
}

Report run_workload(const RunOptions& options) {
  const Workload& w = find_workload(options.workload);
  return w.kind == Kind::kService ? run_open_loop(w, options)
                                  : run_closed_loop(w, options);
}

double measure_setup(const std::string& workload, std::uint64_t seed) {
  const Workload& w = find_workload(workload);
  pin_this_thread(two_cpus().first);
  // The first session's trace is an input, generated before the clock.
  const Property first = w.cycle.front();
  SystemTrace trace = make_trace(first, w.n, w.comm_mu, mix(seed, 0));
  const auto t0 = Clock::now();
  double admission_ms = 0.0;
  const auto artifacts = admit(w, &admission_ms);
  const SharedProperty& art = artifacts.at(first);
  if (w.kind == Kind::kService) {
    service::ServiceConfig config;
    config.num_shards = w.shards;
    service::MonitoringService svc(config);
    return ms_since(t0) / 1e3;  // the destructor's join is tear-down
  }
  if (w.kind == Kind::kSim) {
    SimRuntime runtime(std::move(trace), &art->registry(), sim_config(1));
    DecentralizedMonitor monitors(
        property_handle(art), &runtime,
        initial_letters_of(art->registry(), runtime.initial_states()));
    return ms_since(t0) / 1e3;
  }
  SocketRuntime runtime(std::move(trace), &art->registry(), socket_config(1));
  DecentralizedMonitor monitors(
      property_handle(art), &runtime,
      initial_letters_of(art->registry(), runtime.initial_states()));
  return ms_since(t0) / 1e3;
}

}  // namespace perfbench
