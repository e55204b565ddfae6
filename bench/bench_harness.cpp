// Machine-readable benchmark harness: runs the Chapter-5 `run_cell` grid
// (properties A-F x process counts x communication settings) plus a micro
// suite of core-component timings, and emits a single flat JSON file
// (BENCH_core.json) so every PR records a comparable performance trajectory.
//
// Usage: bench_harness [--quick] [--out FILE] [--baseline FILE]
//   --quick     shrink the micro, socket, service and stream suites (CI
//               smoke run); the cell grid runs in full either way
//   --out       output path (default: BENCH_core.json)
//   --baseline  a previously emitted BENCH_core.json; its metrics are
//               embedded under "baseline" and per-metric speedups for the
//               time-valued entries are computed under "speedup"
//
// Schema (decmon-bench-core-v1): a "host" object ({"nproc": N, "compiler":
// "...", "cpu": "...", "build_type": "..."}, the machine and build that
// produced the file; bench_check bands wall-clock rows only between files
// from the same host), then every metric is "name": number.
//   micro.*.ns        nanoseconds per operation
//   micro.*.ms        milliseconds per operation
//   micro.BM_PropertyAdmission.<posture>.ns      one property admission
//     (D, n=5): cold_synthesis / shared_registry
//   cell.<P>.n<k>.<comm|nocomm>.wall_ms          end-to-end monitored run
//   cell.<P>.n<k>.<comm|nocomm>.monitor_messages (Fig. 5.4/5.5 metric)
//   cell.<P>.n<k>.<comm|nocomm>.global_views     (Fig. 5.8 metric)
//   cell.<P>.n<k>.<comm|nocomm>.peak_views       aggregate peak live views
//   cell.<P>.n<k>.<comm|nocomm>.token_hops       total token hops
//   cell.<P>.n<k>.<comm|nocomm>.wire_bytes       encoded bytes sent (§9)
//   cell.<P>.n<k>.<comm|nocomm>.third_process_hops  token hops by
//                                                SendToNextProcess rule 3
//   cell.<P>.n<k>.<comm|nocomm>.tokens_parked    tokens parked for an event
//   cell.<P>.n<k>.<comm|nocomm>.events_delayed   events queued behind a token
//   cell.<P>.n<k>.<comm|nocomm>.probes_evaluated probes that ran admission
//   cell.<P>.n<k>.<comm|nocomm>.probes_deduped   duplicate probes rejected
//   cell.<P>.n<k>.<comm|nocomm>.entries_opened   transition entries built
//   socket.<P>.n<k>.<batched|unbatched>.wall_ms  SocketRuntime run (§10)
//   socket.<P>.n<k>.<batched|unbatched>.{wire_bytes,wire_frames}
//                                                transport-truth counters
//   socket.<P>.n<k>.batched.coalesced_frames     congestion merges
//   socket.<P>.n<k>.{program_events,app_messages} trace-determined counts
//   recovery.clean.wall_ms                       bare distributed run
//   recovery.channel.wall_ms                     + ReliableChannel (no faults)
//   recovery.channel.{data_sent,acks_sent}       clean-path channel traffic
//   recovery.crash.wall_ms                       + lossy net, crash + restart
//   recovery.crash.{retransmissions,acks_sent,dup_suppressed,
//                   checkpoints,checkpoint_bytes,restarts,
//                   dropped_while_down,journal_replayed}   (DESIGN.md §8)
//   recovery.socket.<clean|fault>.wall_ms        §13.3 drill over sockets
//   recovery.socket.<clean|fault>.kills          exact: 0 clean / 1 fault
//   recovery.socket.fault.{reconnects,retransmissions,disconnect_drops}
//                                                outage-repair traffic
//   service.<P>.n<k>.s<K>.{sessions,events,monitor_messages}  exact counts
//   service.<P>.n<k>.s<K>.{wall_ms,sessions_per_s,events_per_s} throughput
//   service.<P>.n<k>.s<K>.{lat_p50_ms,lat_p95_ms,lat_p99_ms,queue_p99_ms}
//                                                HDR-histogram percentiles
//   service.<P>.n<k>.s<K>_vs_s1.speedup          K-shard scaling factor
//   stream.F.n5.len<L>.<streaming|control>.peak_history  max retained
//                                                history window (events)
//   stream.F.n5.len<L>.<streaming|control>.{peak_views,wall_ms}
//   stream.F.n5.len<L>.streaming.{history_trimmed,gc_sweeps}
#include <sched.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "decmon/decmon.hpp"

namespace {

using namespace decmon;
using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Ordered metric list: insertion order is emission order.
struct Metrics {
  std::vector<std::pair<std::string, double>> entries;
  void put(const std::string& name, double value) {
    entries.emplace_back(name, value);
  }
};

// ---------------------------------------------------------------------------
// Micro suite (the hand-rolled equivalents of bench/micro_core.cpp, timed
// with best-of-three chrono loops so the output is plain numbers).
// ---------------------------------------------------------------------------

template <typename Fn>
double best_of(int runs, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < runs; ++r) {
    const double ms = fn();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

// Each micro lives in its own noinline function: when they shared one
// frame, unrelated header churn (inline-storage objects growing a sibling
// block's locals) shifted stack layout and loop alignment enough to move
// the 3-5ns workloads by 30%+. Isolated frames keep the numbers about the
// workload, not the binary layout.
constexpr int kMicroRuns = 3;

[[gnu::noinline]] void micro_automaton_step(Metrics& out, bool quick) {
  // Automaton stepping (the BM_AutomatonStep workload: property F, n=4).
  const SharedProperty art = paper::shared_property(
      paper::Property::kF, 4, paper::make_registry(4));
  const MonitorAutomaton& m = art->automaton();
  std::mt19937_64 rng(7);
  std::vector<AtomSet> letters;
  for (int i = 0; i < 256; ++i) letters.push_back(rng() & 0xFF);
  const std::int64_t iters = quick ? (1 << 18) : (1 << 21);
  volatile int sink = 0;
  const double ms = best_of(kMicroRuns, [&] {
    int q = m.initial_state();
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < iters; ++i) {
      q = *m.step(q, letters[static_cast<std::size_t>(i & 255)]);
    }
    sink = q;
    return elapsed_ms(t0);
  });
  (void)sink;
  out.put("micro.BM_AutomatonStep.ns", ms * 1e6 / static_cast<double>(iters));
}

[[gnu::noinline]] void micro_locally_satisfied(Metrics& out, bool quick) {
  // Per-process conjunct checks (the token walk's inner loop: D, n=5).
  AtomRegistry reg = paper::make_registry(5);
  const SharedProperty art =
      paper::shared_property(paper::Property::kD, 5, reg);
  const CompiledProperty& prop = art->property();
  std::mt19937_64 rng(11);
  std::vector<AtomSet> letters;
  for (int i = 0; i < 256; ++i) letters.push_back(rng() & 0x3FF);
  const int tids = art->automaton().num_transitions();
  const std::int64_t iters = quick ? (1 << 16) : (1 << 19);
  volatile int sink = 0;
  const double ms = best_of(kMicroRuns, [&] {
    int acc = 0;
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < iters; ++i) {
      const int tid = static_cast<int>(i % tids);
      const int proc = static_cast<int>(i % 5);
      acc += prop.locally_satisfied(
          tid, proc, letters[static_cast<std::size_t>(i & 255)]);
    }
    sink = acc;
    return elapsed_ms(t0);
  });
  (void)sink;
  out.put("micro.BM_LocallySatisfied.ns",
          ms * 1e6 / static_cast<double>(iters));
}

[[gnu::noinline]] void micro_vector_clock_compare(Metrics& out, bool quick) {
  // Vector clock comparison, n=16.
  VectorClock a(16), b(16);
  std::mt19937_64 rng(1);
  for (std::size_t i = 0; i < 16; ++i) {
    a[i] = static_cast<std::uint32_t>(rng() % 100);
    b[i] = static_cast<std::uint32_t>(rng() % 100);
  }
  const std::int64_t iters = quick ? (1 << 18) : (1 << 21);
  volatile int sink = 0;
  const double ms = best_of(kMicroRuns, [&] {
    int acc = 0;
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < iters; ++i) {
      acc += static_cast<int>(a.compare(b));
    }
    sink = acc;
    return elapsed_ms(t0);
  });
  (void)sink;
  out.put("micro.BM_VectorClockCompare.ns",
          ms * 1e6 / static_cast<double>(iters));
}

[[gnu::noinline]] void micro_monitor_synthesis(Metrics& out, bool quick) {
  // Monitor synthesis, property D.
  const int n = quick ? 2 : 3;
  const int iters = quick ? 3 : 10;
  const double ms = best_of(kMicroRuns, [&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
      AtomRegistry reg = paper::make_registry(n);
      FormulaPtr f = paper::formula(paper::Property::kD, n, reg);
      MonitorAutomaton m = synthesize_monitor(f);
      if (m.num_states() == 0) std::abort();
    }
    return elapsed_ms(t0);
  });
  out.put("micro.BM_MonitorSynthesis.ms", ms / iters);
}

[[gnu::noinline]] void micro_property_admission(Metrics& out, bool quick) {
  // Admission of one golden property (D, n=5), cold and warm.
  // cold_synthesis is construction + validation + dispatch build with the
  // memo bypassed (what a process pays on first admission);
  // shared_registry is shared_property on a warm memo (a refcount bump).
  constexpr paper::Property kProp = paper::Property::kD;
  constexpr int n = 5;
  AtomRegistry reg = paper::make_registry(n);

  {
    const int iters = quick ? 2 : 5;
    const double ms = best_of(kMicroRuns, [&] {
      const auto t0 = Clock::now();
      for (int i = 0; i < iters; ++i) {
        MonitorAutomaton m = paper::build_automaton_uncached(kProp, n, reg);
        if (m.num_states() == 0) std::abort();
      }
      return elapsed_ms(t0);
    });
    out.put("micro.BM_PropertyAdmission.cold_synthesis.ns", ms * 1e6 / iters);
  }

  paper::synthesis_cache_clear();
  if (!paper::shared_property(kProp, n, reg)) std::abort();  // warm the memo
  {
    const int iters = quick ? (1 << 14) : (1 << 17);
    volatile int sink = 0;
    const double ms = best_of(kMicroRuns, [&] {
      int acc = 0;
      const auto t0 = Clock::now();
      for (int i = 0; i < iters; ++i) {
        SharedProperty art = paper::shared_property(kProp, n, reg);
        acc += art->automaton().num_states();
      }
      sink = acc;
      return elapsed_ms(t0);
    });
    (void)sink;
    out.put("micro.BM_PropertyAdmission.shared_registry.ns",
            ms * 1e6 / iters);
  }
}

[[gnu::noinline]] void micro_monitored_run(Metrics& out, bool quick) {
  // Whole monitored run, property C, n=4 (BM_MonitoredRun workload).
  MonitorSession session(
      paper::shared_property(paper::Property::kC, 4, paper::make_registry(4)));
  TraceParams params = paper::experiment_params(paper::Property::kC, 4, 9);
  SystemTrace trace = generate_trace(params);
  const int iters = quick ? 2 : 10;
  const double ms = best_of(kMicroRuns, [&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
      RunResult r = session.run(trace);
      if (r.program_events == 0) std::abort();
    }
    return elapsed_ms(t0);
  });
  out.put("micro.BM_MonitoredRun_C_n4.ms", ms / iters);
}

void micro_suite(Metrics& out, bool quick) {
  micro_automaton_step(out, quick);
  micro_locally_satisfied(out, quick);
  micro_vector_clock_compare(out, quick);
  micro_monitor_synthesis(out, quick);
  micro_property_admission(out, quick);
  micro_monitored_run(out, quick);
}

// ---------------------------------------------------------------------------
// The run_cell grid (bench_common.hpp's cell, instrumented with wall clock
// and the aggregate stats the figure benches do not report).
// ---------------------------------------------------------------------------

void run_cell_metrics(Metrics& out, paper::Property prop, int n,
                      double comm_mu, bool comm_enabled, int replications,
                      std::uint64_t base_seed = 2015) {
  MonitorSession session(
      paper::shared_property(prop, n, paper::make_registry(n)));

  // Same posture as bench_common.hpp: cells measure the deployment
  // configuration, which batches frames while they are in flight.
  SimConfig sim;
  sim.coalesce = CoalesceMode::kTransit;

  double wall_ms = 0;
  double monitor_messages = 0;
  double global_views = 0;
  double peak_views = 0;
  double token_hops = 0;
  double wire_bytes = 0;
  double third_process_hops = 0;
  double tokens_parked = 0;
  double events_delayed = 0;
  double probes_evaluated = 0;
  double probes_deduped = 0;
  double entries_opened = 0;
  for (int r = 0; r < replications; ++r) {
    TraceParams params = paper::experiment_params(
        prop, n, base_seed + static_cast<std::uint64_t>(r), comm_mu,
        comm_enabled);
    SystemTrace trace = generate_trace(params);
    force_final_all_true(trace);
    const auto t0 = Clock::now();
    RunResult run = session.run(trace, sim);
    wall_ms += elapsed_ms(t0);
    monitor_messages += static_cast<double>(run.monitor_messages);
    global_views += static_cast<double>(run.total_global_views);
    peak_views +=
        static_cast<double>(run.verdict.aggregate.peak_global_views);
    token_hops += static_cast<double>(run.verdict.aggregate.token_hops);
    wire_bytes += static_cast<double>(run.verdict.aggregate.bytes_sent);
    third_process_hops +=
        static_cast<double>(run.verdict.aggregate.third_process_hops);
    tokens_parked += static_cast<double>(run.verdict.aggregate.tokens_parked);
    events_delayed +=
        static_cast<double>(run.verdict.aggregate.events_delayed);
    probes_evaluated +=
        static_cast<double>(run.verdict.aggregate.probes_evaluated);
    probes_deduped +=
        static_cast<double>(run.verdict.aggregate.probes_deduped);
    entries_opened +=
        static_cast<double>(run.verdict.aggregate.entries_opened);
  }
  const double k = static_cast<double>(replications);
  const std::string base = "cell." + paper::name(prop) + ".n" +
                           std::to_string(n) + "." +
                           (comm_enabled ? "comm" : "nocomm");
  out.put(base + ".wall_ms", wall_ms / k);
  out.put(base + ".monitor_messages", monitor_messages / k);
  out.put(base + ".global_views", global_views / k);
  out.put(base + ".peak_views", peak_views / k);
  out.put(base + ".token_hops", token_hops / k);
  out.put(base + ".wire_bytes", wire_bytes / k);
  out.put(base + ".third_process_hops", third_process_hops / k);
  out.put(base + ".tokens_parked", tokens_parked / k);
  out.put(base + ".events_delayed", events_delayed / k);
  out.put(base + ".probes_evaluated", probes_evaluated / k);
  out.put(base + ".probes_deduped", probes_deduped / k);
  out.put(base + ".entries_opened", entries_opened / k);
}

void cell_grid(Metrics& out) {
  // Quick and full mode run the same grid, A-F x n3,5 x comm/nocomm, with
  // the same replication count: the count-valued cell metrics are
  // deterministic per (cell, reps), so tools/bench_check gates every one of
  // them exactly against the committed BENCH_core.json in CI.
  const int reps = 3;
  for (paper::Property p : paper::kAllProperties) {
    for (int n : {3, 5}) {
      run_cell_metrics(out, p, n, 3.0, /*comm_enabled=*/true, reps);
      run_cell_metrics(out, p, n, 3.0, /*comm_enabled=*/false, reps);
    }
  }
}

// ---------------------------------------------------------------------------
// Socket suite: the same Chapter-5 cells run over SocketRuntime -- real TCP
// loopback sockets, epoll, wire serialization -- in both transport
// postures. wall/bytes/frames are measured at the socket (transport truth),
// so this is where frame batching's syscall and header savings become a
// number instead of an inference. time_scale=0 collapses the trace waits:
// the grid measures processing + I/O, not scripted sleeping, and the
// resulting backlog is exactly the congestion that makes the batched
// posture's coalescing matter.
// ---------------------------------------------------------------------------

void run_socket_cell(Metrics& out, paper::Property prop, int n,
                     int replications, std::uint64_t base_seed = 2015) {
  AtomRegistry reg = paper::make_registry(n);
  const SharedProperty art = paper::shared_property(prop, n, reg);

  const std::string base =
      "socket." + paper::name(prop) + ".n" + std::to_string(n);
  double program_events = 0, app_messages = 0;
  for (const bool batch : {true, false}) {
    double wall_ms = 0, wire_bytes = 0, wire_frames = 0, coalesced = 0;
    program_events = 0;
    app_messages = 0;
    for (int r = 0; r < replications; ++r) {
      // Comm-heavy posture: broadcasts at twice the default rate so the
      // transport carries real traffic in both planes.
      TraceParams params = paper::experiment_params(
          prop, n, base_seed + static_cast<std::uint64_t>(r),
          /*comm_mu=*/1.5);
      SystemTrace trace = generate_trace(params);
      force_final_all_true(trace);

      SocketConfig config;
      config.time_scale = 0.0;
      config.batch = batch;
      // Bounded kernel buffers: loopback's multi-megabyte defaults never
      // push back, which would leave the congestion/coalescing path idle.
      // 32 KiB models a real NIC-bounded link and makes the batched
      // posture's convoy behaviour part of what the grid measures.
      config.sndbuf = 32 * 1024;
      config.rcvbuf = 32 * 1024;
      const auto t0 = Clock::now();
      SocketRuntime runtime(std::move(trace), &reg, config);
      DecentralizedMonitor monitors(
          property_handle(art), &runtime,
          initial_letters_of(reg, runtime.initial_states()));
      runtime.set_hooks(&monitors);
      runtime.run();
      wall_ms += elapsed_ms(t0);
      if (!monitors.all_finished()) std::abort();
      wire_bytes += static_cast<double>(runtime.wire_bytes());
      wire_frames += static_cast<double>(runtime.wire_frames());
      coalesced += static_cast<double>(runtime.coalesced_frames());
      program_events += static_cast<double>(runtime.program_events());
      app_messages += static_cast<double>(runtime.app_messages_sent());
    }
    const double k = static_cast<double>(replications);
    const std::string posture = base + (batch ? ".batched" : ".unbatched");
    out.put(posture + ".wall_ms", wall_ms / k);
    out.put(posture + ".wire_bytes", wire_bytes / k);
    out.put(posture + ".wire_frames", wire_frames / k);
    if (batch) out.put(posture + ".coalesced_frames", coalesced / k);
  }
  // Trace-determined counts, identical in both postures: the exact CI gate
  // that proves quick and full runs drive the same workload.
  const double k = static_cast<double>(replications);
  out.put(base + ".program_events", program_events / k);
  out.put(base + ".app_messages", app_messages / k);
}

void socket_grid(Metrics& out, bool quick) {
  // Like cell_grid: quick mode shrinks the grid, never the replication
  // count, so the metrics emitted by both modes are comparable.
  const int reps = 3;
  std::vector<paper::Property> props;
  std::vector<int> ns;
  if (quick) {
    props = {paper::Property::kA, paper::Property::kD};
    ns = {3};
  } else {
    props.assign(std::begin(paper::kAllProperties),
                 std::end(paper::kAllProperties));
    ns = {3, 5};
  }
  for (paper::Property p : props) {
    for (int n : ns) run_socket_cell(out, p, n, reps);
  }
}

// ---------------------------------------------------------------------------
// Recovery suite: the same distributed workload run bare, under the
// ReliableChannel on a fault-free network (its clean-path overhead), and
// under true message loss with one crash + checkpoint restart (the full
// DESIGN.md §8 recovery cost). Recovery counters come from the layers that
// own them -- the channel and the crash injector -- since the monitors
// themselves never see them.
// ---------------------------------------------------------------------------

enum class RecoveryVariant { kClean, kChannel, kCrash };

/// One recovery run's counters; the channel and crash stats stay zero when
/// the variant has no such layer.
struct RecoveryCounts {
  MonitorStats monitor;
  ChannelStats channel;
  CrashStats crash;
};

RecoveryCounts run_recovery_once(RecoveryVariant variant, std::uint64_t seed,
                                 double* wall_ms) {
  constexpr int n = 4;
  AtomRegistry reg = paper::make_registry(n);
  const SharedProperty art =
      paper::shared_property(paper::Property::kD, n, reg);
  TraceParams params =
      paper::experiment_params(paper::Property::kD, n, seed, 3.0,
                               /*comm_enabled=*/true);
  SimConfig sim;
  sim.seed = seed + 1;

  FaultConfig faults;
  if (variant == RecoveryVariant::kCrash) {
    faults.delay_prob = 0.15;
    faults.lose_prob = 0.15;  // true loss: survivable only via the channel
    faults.seed = seed + 2;
  }
  CrashPlan plan;
  if (variant == RecoveryVariant::kCrash) {
    plan.node = 1;
    plan.crash_after = 4;
    plan.down_deliveries = 2;
  }

  const auto t0 = Clock::now();
  SimRuntime runtime(generate_trace(params), &reg, sim);
  FaultyNetwork faulty(&runtime, n, faults);
  std::optional<ReliableChannel> channel;
  if (variant != RecoveryVariant::kClean) channel.emplace(&faulty, n);
  MonitorNetwork* net =
      channel ? static_cast<MonitorNetwork*>(&*channel) : &faulty;
  DecentralizedMonitor monitors(
      property_handle(art), net,
      initial_letters_of(reg, runtime.initial_states()));
  MonitorHooks* hooks = &monitors;
  if (channel) {
    channel->set_hooks(&monitors);
    hooks = &*channel;
  }
  std::optional<CrashInjector> injector;
  if (plan.node >= 0) {
    injector.emplace(hooks, &monitors, &*channel, plan);
    hooks = &*injector;
  }
  runtime.set_hooks(hooks);
  runtime.run();
  *wall_ms += elapsed_ms(t0);

  const SystemVerdict v = monitors.result();
  if (!v.all_finished) std::abort();  // the workload must always drain
  RecoveryCounts counts;
  counts.monitor = v.aggregate;
  if (channel) counts.channel = channel->total_stats();
  if (injector) {
    counts.crash = injector->stats();
    if (counts.crash.restarts != 1) std::abort();  // the crash must recover
  }
  return counts;
}

// Socket-posture recovery row: the §13.3 golden-verdict drill as a
// benchmark. The quick socket cell's workload (kD, n=3, comm-heavy) runs
// over SocketRuntime + ReliableChannel twice -- bare, and with one seeded
// mid-run connection kill (abortive RST, reconnect + HELLO reconciliation,
// channel retransmissions bridging the outage). The kill budget always
// exhausts under this traffic, so .kills is an exact CI gate; where the RST
// lands relative to in-flight records is kernel scheduling, so the
// reconnect/retransmission/drop counters are banded like the socket grid's.
struct SocketRecoveryRow {
  double wall_ms = 0;
  std::uint64_t kills = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t disconnect_drops = 0;
};

void run_recovery_socket_once(bool fault, std::uint64_t seed,
                              SocketRecoveryRow* row) {
  constexpr int n = 3;
  AtomRegistry reg = paper::make_registry(n);
  const SharedProperty art =
      paper::shared_property(paper::Property::kD, n, reg);
  SystemTrace trace = generate_trace(paper::experiment_params(
      paper::Property::kD, n, seed, /*comm_mu=*/1.5));
  force_final_all_true(trace);

  SocketConfig config;
  config.time_scale = 0.0;
  config.sndbuf = 32 * 1024;  // same NIC-bounded posture as the socket grid
  config.rcvbuf = 32 * 1024;
  if (fault) {
    config.fault.enabled = true;
    config.fault.seed = seed + 7;
    config.fault.kill_after_min = 4;
    config.fault.kill_after_max = 12;
    config.fault.max_kills = 1;
  }
  const auto t0 = Clock::now();
  SocketRuntime runtime(std::move(trace), &reg, config);
  // Channel deadlines are in now() units -- real seconds on this runtime --
  // so the simulator default rto (3.0 trace seconds) would park every
  // retransmission (and the quiescence tail behind the last armed timer)
  // for seconds of wall clock. 50 ms keeps outage repair prompt.
  ReliableChannelConfig channel_config;
  channel_config.rto = 0.05;
  ReliableChannel channel(&runtime, n, channel_config);
  DecentralizedMonitor monitors(
      property_handle(art), &channel,
      initial_letters_of(reg, runtime.initial_states()));
  channel.set_hooks(&monitors);
  runtime.set_hooks(&channel);
  runtime.run();
  row->wall_ms += elapsed_ms(t0);
  if (!monitors.all_finished()) std::abort();
  // The seeded plan must fire and the bare run must stay fault-free:
  // .kills is the exact gate proving both postures measured what they claim.
  if (runtime.connections_killed() != (fault ? 1u : 0u)) std::abort();
  row->kills += runtime.connections_killed();
  row->reconnects += runtime.reconnects();
  row->retransmissions += channel.total_stats().retransmissions;
  row->disconnect_drops += runtime.disconnect_drops();
}

void recovery_suite(Metrics& out, bool quick) {
  const int reps = quick ? 2 : 5;
  const std::uint64_t base_seed = 4040;
  double clean_ms = 0, channel_ms = 0, crash_ms = 0;
  ChannelStats channel_agg, crash_channel_agg;
  CrashStats crash_agg;
  std::uint64_t channel_data = 0;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(r);
    run_recovery_once(RecoveryVariant::kClean, seed, &clean_ms);
    const RecoveryCounts ch =
        run_recovery_once(RecoveryVariant::kChannel, seed, &channel_ms);
    channel_agg += ch.channel;
    channel_data +=
        ch.monitor.token_messages_sent + ch.monitor.termination_messages;
    const RecoveryCounts crash =
        run_recovery_once(RecoveryVariant::kCrash, seed, &crash_ms);
    crash_channel_agg += crash.channel;
    crash_agg.checkpoints_taken += crash.crash.checkpoints_taken;
    crash_agg.checkpoint_bytes += crash.crash.checkpoint_bytes;
    crash_agg.restarts += crash.crash.restarts;
  }
  const double k = static_cast<double>(reps);
  out.put("recovery.clean.wall_ms", clean_ms / k);
  out.put("recovery.channel.wall_ms", channel_ms / k);
  out.put("recovery.channel.data_sent", static_cast<double>(channel_data) / k);
  out.put("recovery.channel.acks_sent",
          static_cast<double>(channel_agg.acks_sent) / k);
  out.put("recovery.channel.retransmissions",
          static_cast<double>(channel_agg.retransmissions) / k);
  out.put("recovery.crash.wall_ms", crash_ms / k);
  out.put("recovery.crash.retransmissions",
          static_cast<double>(crash_channel_agg.retransmissions) / k);
  out.put("recovery.crash.acks_sent",
          static_cast<double>(crash_channel_agg.acks_sent) / k);
  out.put("recovery.crash.dup_suppressed",
          static_cast<double>(crash_channel_agg.dup_suppressed) / k);
  out.put("recovery.crash.checkpoints",
          static_cast<double>(crash_agg.checkpoints_taken) / k);
  out.put("recovery.crash.checkpoint_bytes",
          static_cast<double>(crash_agg.checkpoint_bytes) / k);
  out.put("recovery.crash.restarts",
          static_cast<double>(crash_agg.restarts) / k);

  // Socket-posture rows use a fixed replication count (like socket_grid:
  // quick mode never shrinks reps), so quick and full runs emit comparable
  // values and bench_check can gate them against the committed baseline.
  const int socket_reps = 2;
  SocketRecoveryRow clean_row, fault_row;
  for (int r = 0; r < socket_reps; ++r) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(r);
    run_recovery_socket_once(/*fault=*/false, seed, &clean_row);
    run_recovery_socket_once(/*fault=*/true, seed, &fault_row);
  }
  const double sk = static_cast<double>(socket_reps);
  out.put("recovery.socket.clean.wall_ms", clean_row.wall_ms / sk);
  out.put("recovery.socket.clean.kills",
          static_cast<double>(clean_row.kills) / sk);
  out.put("recovery.socket.clean.retransmissions",
          static_cast<double>(clean_row.retransmissions) / sk);
  out.put("recovery.socket.fault.wall_ms", fault_row.wall_ms / sk);
  out.put("recovery.socket.fault.kills",
          static_cast<double>(fault_row.kills) / sk);
  out.put("recovery.socket.fault.reconnects",
          static_cast<double>(fault_row.reconnects) / sk);
  out.put("recovery.socket.fault.retransmissions",
          static_cast<double>(fault_row.retransmissions) / sk);
  out.put("recovery.socket.fault.disconnect_drops",
          static_cast<double>(fault_row.disconnect_drops) / sk);
}

// ---------------------------------------------------------------------------
// Service suite: the sharded MonitoringService driven to saturation -- every
// session admitted up front, workers drain the backlog -- so wall clock
// measures fleet throughput and the latency histogram captures the queue
// drain. Session counts and trace seeds are identical across shard counts
// (and across quick/full modes for the shared cells), so the .sessions,
// .events, and .monitor_messages metrics are exact CI gates while the rates
// and percentiles are banded. The sK_vs_s1 speedup metric is where multi-
// core scaling shows up; on a 1-core runner it sits near 1.0 by design.
// ---------------------------------------------------------------------------

void run_service_cell(Metrics& out, paper::Property prop, int n, int shards,
                      int sessions, double* s1_wall_ms) {
  service::ServiceConfig config;
  config.num_shards = shards;
  config.keep_outcomes = false;  // fleet posture: scalars only
  service::MonitoringService svc(config);

  const auto t0 = Clock::now();
  for (int i = 0; i < sessions; ++i) {
    service::SessionSpec spec;
    spec.property = prop;
    spec.num_processes = n;
    spec.trace_seed = 2015 + static_cast<std::uint64_t>(i);
    spec.sim.coalesce = CoalesceMode::kTransit;
    svc.submit(spec);
  }
  svc.drain();
  const double wall_ms = elapsed_ms(t0);
  const service::ServiceStats st = svc.stats();
  if (st.completed != static_cast<std::uint64_t>(sessions) || st.failed != 0) {
    std::abort();  // a bench cell must drain every session cleanly
  }

  const std::string base = "service." + paper::name(prop) + ".n" +
                           std::to_string(n) + ".s" + std::to_string(shards);
  out.put(base + ".sessions", static_cast<double>(st.completed));
  out.put(base + ".events", static_cast<double>(st.program_events));
  out.put(base + ".monitor_messages",
          static_cast<double>(st.monitor_messages));
  out.put(base + ".wall_ms", wall_ms);
  out.put(base + ".sessions_per_s",
          static_cast<double>(st.completed) * 1e3 / wall_ms);
  out.put(base + ".events_per_s",
          static_cast<double>(st.program_events) * 1e3 / wall_ms);
  out.put(base + ".lat_p50_ms",
          static_cast<double>(st.latency_ns.quantile(0.50)) / 1e6);
  out.put(base + ".lat_p95_ms",
          static_cast<double>(st.latency_ns.quantile(0.95)) / 1e6);
  out.put(base + ".lat_p99_ms",
          static_cast<double>(st.latency_ns.quantile(0.99)) / 1e6);
  out.put(base + ".queue_p99_ms",
          static_cast<double>(st.queue_ns.quantile(0.99)) / 1e6);
  if (shards == 1) {
    *s1_wall_ms = wall_ms;
  } else if (*s1_wall_ms > 0) {
    out.put(base + "_vs_s1.speedup", *s1_wall_ms / wall_ms);
  }
}

void service_grid(Metrics& out, bool quick) {
  // Quick mode is a strict subset of the full grid with identical session
  // counts and seeds, so its exact count metrics match the committed
  // full-mode BENCH_core.json (same contract as cell_grid/socket_grid).
  constexpr int kSessions = 48;
  struct Cell {
    paper::Property prop;
    int n;
  };
  std::vector<Cell> cells = {{paper::Property::kA, 3},
                             {paper::Property::kD, 3}};
  std::vector<int> shard_counts = {1, 2};
  if (!quick) {
    cells.push_back({paper::Property::kD, 5});  // comm-heavy scaling cells
    cells.push_back({paper::Property::kF, 5});
    shard_counts.push_back(4);
  }
  for (const Cell& cell : cells) {
    double s1_wall_ms = 0;
    for (int shards : shard_counts) {
      run_service_cell(out, cell.prop, cell.n, shards, kSessions,
                       &s1_wall_ms);
    }
  }
}

// ---------------------------------------------------------------------------
// Stream suite: the bounded-memory claim as a number (DESIGN.md §12). One
// comm-heavy cell (property F, n=5) at 10x and 20x the default cell trace
// length, run in both postures against the same trace. The control's
// peak_history grows linearly with the trace; the streaming run's must stay
// flat between the two lengths -- that pair of rows is the committed
// evidence that GC actually bounds the window, not just that it runs.
// (Deliberately no RSS metric here: the harness process's high-water mark
// is polluted by every suite that ran before this one; the soak CI job
// measures RSS in a dedicated load_gen process instead.)
// ---------------------------------------------------------------------------

void run_stream_cell(Metrics& out, int internal_events, bool streaming) {
  constexpr int n = 5;
  MonitorSession session(
      paper::shared_property(paper::Property::kF, n, paper::make_registry(n)));
  TraceParams params = paper::experiment_params(
      paper::Property::kF, n, 2015, 3.0, /*comm_enabled=*/true,
      internal_events);
  SystemTrace trace = generate_trace(params);
  force_final_all_true(trace);

  MonitorOptions options;
  if (streaming) options.gc_interval = 16;
  const auto t0 = Clock::now();
  RunResult run = session.run(trace, SimConfig{}, options);
  const double wall_ms = elapsed_ms(t0);
  if (!run.verdict.all_finished) std::abort();

  const MonitorStats& agg = run.verdict.aggregate;
  const std::string base = "stream.F.n5.len" + std::to_string(internal_events) +
                           (streaming ? ".streaming" : ".control");
  out.put(base + ".wall_ms", wall_ms);
  out.put(base + ".peak_history", static_cast<double>(agg.peak_history));
  out.put(base + ".peak_views", static_cast<double>(agg.peak_global_views));
  if (streaming) {
    out.put(base + ".history_trimmed",
            static_cast<double>(agg.history_trimmed));
    out.put(base + ".gc_sweeps", static_cast<double>(agg.gc_sweeps));
  }
}

void stream_suite(Metrics& out, bool quick) {
  // Quick mode emits the 10x length only (a strict subset with identical
  // parameters, same contract as the other grids); full mode adds the 20x
  // row that makes the flat-vs-linear comparison visible.
  std::vector<int> lengths = {250};
  if (!quick) lengths.push_back(500);
  for (int len : lengths) {
    run_stream_cell(out, len, /*streaming=*/false);
    run_stream_cell(out, len, /*streaming=*/true);
  }
}

// ---------------------------------------------------------------------------
// JSON in/out (flat "name": number pairs; no external JSON dependency).
// ---------------------------------------------------------------------------

/// Parse the "metrics" object of a previously emitted file. Accepts exactly
/// the format write_json produces: one `"name": value[,]` pair per line.
std::vector<std::pair<std::string, double>> parse_baseline(
    const std::string& path) {
  std::vector<std::pair<std::string, double>> result;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_harness: cannot read baseline %s\n",
                 path.c_str());
    return result;
  }
  std::string line;
  bool in_metrics = false;
  while (std::getline(in, line)) {
    if (line.find("\"metrics\"") != std::string::npos) {
      in_metrics = true;
      continue;
    }
    if (!in_metrics) continue;
    if (line.find('}') != std::string::npos) break;
    const auto q0 = line.find('"');
    const auto q1 = line.find('"', q0 + 1);
    const auto colon = line.find(':', q1 + 1);
    if (q0 == std::string::npos || q1 == std::string::npos ||
        colon == std::string::npos) {
      continue;
    }
    const std::string name = line.substr(q0 + 1, q1 - q0 - 1);
    result.emplace_back(name, std::stod(line.substr(colon + 1)));
  }
  return result;
}

void write_object(std::ostream& os, const char* key,
                  const std::vector<std::pair<std::string, double>>& entries,
                  bool trailing_comma) {
  os << "  \"" << key << "\": {\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", entries[i].second);
    os << "    \"" << entries[i].first << "\": " << buf
       << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  os << "  }" << (trailing_comma ? "," : "") << "\n";
}

bool is_time_metric(const std::string& name) {
  const auto dot = name.rfind('.');
  const std::string suffix = dot == std::string::npos ? "" : name.substr(dot);
  return suffix == ".ns" || suffix == ".ms" || suffix == ".wall_ms";
}

/// CPUs this process may run on (what `nproc` prints).
int host_nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// The first "model name" of /proc/cpuinfo, without JSON-special
/// characters; "unknown" where there is none.
std::string host_cpu() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model;
    for (char c : line.substr(colon + 1)) {
      if (c != '"' && c != '\\' && (c != ' ' || !model.empty())) {
        model.push_back(c);
      }
    }
    if (!model.empty()) return model;
  }
  return "unknown";
}

constexpr const char* kCompiler =
#if defined(__clang__)
    "clang " __clang_version__;
#elif defined(__GNUC__)
    "g++ " __VERSION__;
#else
    "unknown";
#endif

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_core.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_harness [--quick] [--out FILE] "
                   "[--baseline FILE]\n");
      return 2;
    }
  }

  Metrics metrics;
  std::printf("bench_harness: micro suite (%s)...\n",
              quick ? "quick" : "full");
  micro_suite(metrics, quick);
  std::printf("bench_harness: run_cell grid...\n");
  cell_grid(metrics);
  std::printf("bench_harness: socket grid...\n");
  socket_grid(metrics, quick);
  std::printf("bench_harness: recovery suite...\n");
  recovery_suite(metrics, quick);
  std::printf("bench_harness: service grid...\n");
  service_grid(metrics, quick);
  std::printf("bench_harness: stream suite...\n");
  stream_suite(metrics, quick);

  std::vector<std::pair<std::string, double>> baseline;
  std::vector<std::pair<std::string, double>> speedup;
  if (!baseline_path.empty()) {
    baseline = parse_baseline(baseline_path);
    for (const auto& [name, value] : metrics.entries) {
      if (!is_time_metric(name) || value <= 0) continue;
      for (const auto& [bname, bvalue] : baseline) {
        if (bname == name) {
          speedup.emplace_back(name, bvalue / value);
          break;
        }
      }
    }
  }

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "bench_harness: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  os << "{\n"
     << "  \"schema\": \"decmon-bench-core-v1\",\n"
     << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
     << "  \"host\": {\"nproc\": " << host_nproc() << ", \"compiler\": \""
     << kCompiler << "\", \"cpu\": \"" << host_cpu()
     << "\", \"build_type\": \"" << DECMON_BUILD_TYPE << "\"},\n";
  const bool have_baseline = !baseline.empty();
  write_object(os, "metrics", metrics.entries, have_baseline);
  if (have_baseline) {
    write_object(os, "baseline", baseline, true);
    write_object(os, "speedup", speedup, false);
  }
  os << "}\n";
  os.close();

  for (const auto& [name, value] : metrics.entries) {
    std::printf("  %-44s %12.4f\n", name.c_str(), value);
  }
  for (const auto& [name, value] : speedup) {
    std::printf("  speedup %-36s %11.2fx\n", name.c_str(), value);
  }
  std::printf("bench_harness: wrote %s (%zu metrics)\n", out_path.c_str(),
              metrics.entries.size());
  return 0;
}
