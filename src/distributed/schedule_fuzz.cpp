#include "decmon/distributed/schedule_fuzz.hpp"

#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "decmon/distributed/reliable_channel.hpp"
#include "decmon/distributed/replay_runtime.hpp"
#include "decmon/distributed/sim_runtime.hpp"
#include "decmon/lattice/event_log.hpp"
#include "decmon/lattice/oracle.hpp"
#include "decmon/monitor/decentralized_monitor.hpp"
#include "decmon/monitor/property_registry.hpp"
#include "decmon/util/rng.hpp"

namespace decmon::fuzz {
namespace {

/// Everything that determines one fuzz case. A repro is exactly a
/// serialized CaseSpec (plus, for replay cases, the recorded computation).
struct CaseSpec {
  paper::Property property = paper::Property::kA;
  int num_processes = 2;
  Mode mode = Mode::kSim;
  int internal_events = 5;
  double comm_mu = 4.0;
  std::uint64_t trace_seed = 1;
  std::uint64_t sim_seed = 1;
  std::uint64_t schedule_seed = 1;  ///< replay mode only
  std::size_t oracle_max_nodes = kOracleMaxNodes;
  FaultConfig fault;
  bool reliable_channel = false;
  ReliableChannelConfig channel;
  CrashPlan crash;  ///< node < 0 means no crash
  bool gc = false;  ///< streaming posture with an aggressive GC cadence
};

/// Sweep cadence for gc cases: every 3 local events, so trims interleave
/// with parked tokens and in-flight probes as tightly as possible.
constexpr std::uint32_t kFuzzGcInterval = 3;

struct CaseOutcome {
  std::set<Verdict> oracle;
  std::set<Verdict> monitor;
  bool all_finished = false;
  std::uint64_t tokens_created = 0;   ///< summed over the monitors
  std::uint64_t tokens_returned = 0;  ///< summed over the monitors
  /// Lemma 1 is checkable: no crash, and no transmission was lost without
  /// a reliable channel to repair it.
  bool tokens_accountable = false;
  FaultStats faults;
  ChannelStats channel;
  CrashStats crash;
  Computation comp;  ///< the history the oracle was evaluated on
};

paper::Property property_from_name(const std::string& name) {
  for (paper::Property p : paper::kAllProperties) {
    if (paper::name(p) == name) return p;
  }
  throw std::runtime_error("fuzz repro: unknown property " + name);
}

char verdict_char(Verdict v) {
  switch (v) {
    case Verdict::kTrue: return 'T';
    case Verdict::kFalse: return 'F';
    case Verdict::kUnknown: break;
  }
  return '?';
}

std::string show_verdicts(const std::set<Verdict>& vs) {
  std::string s;
  for (Verdict v : vs) {
    if (!s.empty()) s += ' ';
    s += verdict_char(v);
  }
  return s.empty() ? "-" : s;
}

/// The fault-tolerance stack of one case: FaultyNetwork below, optional
/// ReliableChannel above it, optional CrashInjector on the delivery side.
/// Owns nothing but wiring; `monitors` is constructed by the caller against
/// net() and attached afterwards.
struct CaseStack {
  CaseStack(const CaseSpec& spec, MonitorNetwork* runtime_net)
      : faulty(runtime_net, spec.num_processes, spec.fault) {
    if (spec.reliable_channel || spec.crash.node >= 0) {
      channel.emplace(&faulty, spec.num_processes, spec.channel);
    }
  }

  /// The network monitors send through.
  MonitorNetwork* net() {
    return channel ? static_cast<MonitorNetwork*>(&*channel) : &faulty;
  }

  /// Finish wiring: deliveries flow runtime -> [injector ->] [channel ->]
  /// monitors. Returns the hooks the runtime must call.
  MonitorHooks* attach(const CaseSpec& spec, DecentralizedMonitor* monitors) {
    MonitorHooks* hooks = monitors;
    if (channel) {
      channel->set_hooks(monitors);
      hooks = &*channel;
    }
    if (spec.crash.node >= 0) {
      if (!channel) {
        throw std::invalid_argument(
            "fuzz: crash injection requires the reliable channel");
      }
      injector.emplace(hooks, monitors, &*channel, spec.crash);
      hooks = &*injector;
    }
    return hooks;
  }

  void collect(CaseOutcome& out) {
    out.faults = faulty.stats();
    if (channel) out.channel = channel->total_stats();
    if (injector) out.crash = injector->stats();
  }

  FaultyNetwork faulty;
  std::optional<ReliableChannel> channel;
  std::optional<CrashInjector> injector;
};

/// Run one case. `recorded` (replay repros) substitutes for regenerating
/// the computation; null means record it fresh from the trace seeds.
CaseOutcome execute_case(const CaseSpec& spec, const Computation* recorded) {
  const SharedProperty art =
      paper::shared_property(spec.property, spec.num_processes,
                             paper::make_registry(spec.num_processes));
  const AtomRegistry& registry = art->registry();

  const TraceParams params = paper::experiment_params(
      spec.property, spec.num_processes, spec.trace_seed, spec.comm_mu,
      /*comm_enabled=*/true, spec.internal_events);
  SimConfig sim;
  sim.seed = spec.sim_seed;
  MonitorOptions mopts;
  if (spec.gc) mopts.gc_interval = kFuzzGcInterval;

  CaseOutcome out;
  if (spec.mode == Mode::kSim) {
    SimRuntime runtime(generate_trace(params), &registry, sim);
    CaseStack stack(spec, &runtime);
    DecentralizedMonitor monitors(
        property_handle(art), stack.net(),
        initial_letters_of(registry, runtime.initial_states()), mopts);
    runtime.set_hooks(stack.attach(spec, &monitors));
    runtime.run();
    out.comp = Computation(runtime.history());
    stack.collect(out);
    const SystemVerdict v = monitors.result();
    out.monitor = v.verdicts;
    out.all_finished = v.all_finished;
    out.tokens_created = v.aggregate.tokens_created;
    out.tokens_returned = v.aggregate.tokens_returned;
  } else {
    if (recorded) {
      out.comp = *recorded;
    } else {
      SimRuntime base(generate_trace(params), &registry, sim);
      base.run();
      out.comp = Computation(base.history());
    }
    std::vector<AtomSet> letters;
    for (int p = 0; p < out.comp.num_processes(); ++p) {
      letters.push_back(out.comp.event(p, 0).letter);
    }
    ReplayRuntime runtime;
    CaseStack stack(spec, &runtime);
    DecentralizedMonitor monitors(property_handle(art), stack.net(), letters,
                                  mopts);
    MonitorHooks* hooks = stack.attach(spec, &monitors);
    runtime.run(out.comp, *hooks, spec.schedule_seed);
    stack.collect(out);
    const SystemVerdict v = monitors.result();
    out.monitor = v.verdicts;
    out.all_finished = v.all_finished;
    out.tokens_created = v.aggregate.tokens_created;
    out.tokens_returned = v.aggregate.tokens_returned;
  }
  out.tokens_accountable =
      spec.crash.node < 0 && (spec.reliable_channel || out.faults.lost == 0);
  out.oracle =
      oracle_evaluate(out.comp, art->automaton(), spec.oracle_max_nodes)
          .verdicts;
  return out;
}

/// The contract of DESIGN.md §3 plus liveness: returns an empty kind when
/// the case passes.
std::pair<std::string, std::string> check_contract(const CaseOutcome& out) {
  for (Verdict v : out.oracle) {
    if (!out.monitor.count(v)) {
      return {"incompleteness",
              std::string("oracle verdict ") + verdict_char(v) +
                  " missing; oracle={" + show_verdicts(out.oracle) +
                  "} monitor={" + show_verdicts(out.monitor) + "}"};
    }
  }
  for (Verdict v : out.monitor) {
    if (v != Verdict::kUnknown && !out.oracle.count(v)) {
      return {"unsound-verdict",
              std::string("definite verdict ") + verdict_char(v) +
                  " not on any lattice path; oracle={" +
                  show_verdicts(out.oracle) + "} monitor={" +
                  show_verdicts(out.monitor) + "}"};
    }
  }
  if (!out.all_finished) {
    return {"unfinished",
            "monitors did not reach quiescent final verdicts (stranded "
            "token or view)"};
  }
  // Lemma 1, checked in-process: every token comes home. A duplicated
  // delivery can bring a token home twice, so only a run without
  // duplicates must balance exactly.
  if (out.tokens_accountable &&
      (out.tokens_returned < out.tokens_created ||
       (out.faults.duplicated == 0 &&
        out.tokens_returned != out.tokens_created))) {
    return {"token-lost",
            "tokens created " + std::to_string(out.tokens_created) +
                ", returned " + std::to_string(out.tokens_returned)};
  }
  return {"", ""};
}

FaultConfig random_fault_config(SplitMix64& rng, bool lose_dropped,
                                bool lossy) {
  auto u = [&rng] {
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  };
  FaultConfig fc;
  // Each fault class is active in most configs, with a uniformly random
  // rate; the occasional all-zero config keeps the clean path in the sweep.
  fc.delay_prob = u() < 0.75 ? 0.5 * u() : 0.0;
  fc.delay_mu = 0.1 + 1.5 * u();
  fc.delay_sigma = 0.5 * u();
  fc.reorder_prob = u() < 0.75 ? 0.5 * u() : 0.0;
  fc.dup_prob = u() < 0.6 ? 0.4 * u() : 0.0;
  fc.drop_prob = u() < 0.6 ? 0.3 * u() : 0.0;
  fc.max_drops = 1 + static_cast<int>(rng.next() % 4);
  fc.redelivery_delay = 0.05 + u();
  fc.lose_dropped = lose_dropped;
  if (lossy) {
    // Always a genuinely lossy channel (never zero): every lossy case must
    // actually exercise retransmission.
    fc.lose_prob = 0.05 + 0.25 * u();
  }
  fc.seed = rng.next();
  return fc;
}

/// v1 blobs have no channel/crash lines; v2 adds them (plus optional
/// `partial 1` for watchdog dumps without outcome or event log). The parser
/// accepts both.
void write_spec(std::ostream& os, const CaseSpec& spec) {
  const bool v2 = spec.reliable_channel || spec.crash.node >= 0;
  os << "decmon-fuzz-repro " << (v2 ? "v2" : "v1") << "\n";
  os << "property " << paper::name(spec.property) << "\n";
  os << "processes " << spec.num_processes << "\n";
  os << "mode " << to_string(spec.mode) << "\n";
  os << "internal_events " << spec.internal_events << "\n";
  os << "comm_mu " << spec.comm_mu << "\n";
  os << "trace_seed " << spec.trace_seed << "\n";
  os << "sim_seed " << spec.sim_seed << "\n";
  os << "schedule_seed " << spec.schedule_seed << "\n";
  os << "oracle_max_nodes " << spec.oracle_max_nodes << "\n";
  os << "fault " << spec.fault.to_string() << "\n";
  if (spec.reliable_channel) os << "channel " << spec.channel.to_string() << "\n";
  if (spec.crash.node >= 0) os << "crash " << spec.crash.to_string() << "\n";
  if (spec.gc) os << "gc 1\n";
}

std::string make_repro(const CaseSpec& spec, const CaseOutcome& out,
                       const std::string& kind) {
  std::ostringstream os;
  write_spec(os, spec);
  os << "kind " << kind << "\n";
  os << "oracle " << show_verdicts(out.oracle) << "\n";
  os << "monitor " << show_verdicts(out.monitor) << "\n";
  // The embedded log makes the blob self-contained: replay repros re-drive
  // it directly; sim repros regenerate the identical history from the seeds
  // above and keep the log as the human-readable record.
  os << "eventlog\n" << to_event_log(out.comp);
  return os.str();
}

/// Watchdog blob: everything needed to re-run the case, dumped before the
/// outcome exists. run_repro regenerates the computation from the seeds.
std::string make_partial_repro(const CaseSpec& spec) {
  std::ostringstream os;
  write_spec(os, spec);
  os << "partial 1\n";
  return os.str();
}

FaultConfig fault_from_string(const std::string& text) {
  FaultConfig fc;
  std::istringstream is(text);
  std::string key;
  while (is >> key) {
    if (key == "delay_prob") is >> fc.delay_prob;
    else if (key == "delay_mu") is >> fc.delay_mu;
    else if (key == "delay_sigma") is >> fc.delay_sigma;
    else if (key == "reorder_prob") is >> fc.reorder_prob;
    else if (key == "dup_prob") is >> fc.dup_prob;
    else if (key == "drop_prob") is >> fc.drop_prob;
    else if (key == "max_drops") is >> fc.max_drops;
    else if (key == "redelivery_delay") is >> fc.redelivery_delay;
    else if (key == "lose_prob") is >> fc.lose_prob;
    else if (key == "lose_dropped") {
      int b = 0;
      is >> b;
      fc.lose_dropped = b != 0;
    } else if (key == "seed") {
      is >> fc.seed;
    } else {
      throw std::runtime_error("fuzz repro: unknown fault field " + key);
    }
  }
  if (!is.eof() && is.fail()) {
    throw std::runtime_error("fuzz repro: malformed fault line");
  }
  return fc;
}

ReliableChannelConfig channel_from_string(const std::string& text) {
  ReliableChannelConfig cc;
  std::istringstream is(text);
  std::string key;
  while (is >> key) {
    if (key == "rto") is >> cc.rto;
    else if (key == "backoff") is >> cc.backoff;
    else if (key == "backoff_cap") is >> cc.backoff_cap;
    else if (key == "jitter") is >> cc.jitter;
    else if (key == "seed") is >> cc.seed;
    else throw std::runtime_error("fuzz repro: unknown channel field " + key);
  }
  if (!is.eof() && is.fail()) {
    throw std::runtime_error("fuzz repro: malformed channel line");
  }
  return cc;
}

CrashPlan crash_from_string(const std::string& text) {
  CrashPlan plan;
  std::istringstream is(text);
  std::string key;
  while (is >> key) {
    if (key == "node") is >> plan.node;
    else if (key == "crash_after") is >> plan.crash_after;
    else if (key == "down_deliveries") is >> plan.down_deliveries;
    else throw std::runtime_error("fuzz repro: unknown crash field " + key);
  }
  if (!is.eof() && is.fail()) {
    throw std::runtime_error("fuzz repro: malformed crash line");
  }
  return plan;
}

}  // namespace

std::string to_string(Mode mode) {
  return mode == Mode::kSim ? "sim" : "replay";
}

std::vector<Cell> default_cells() {
  // Cells are only appended, so every earlier cell keeps its position (and
  // so its per-cell case seeds). After the first three come the largest
  // automata, D and F, which also dominate the token walk. From four
  // processes on, a token away from its parent can choose between third
  // processes (SendToNextProcess rule 3).
  return {{paper::Property::kA, 3}, {paper::Property::kB, 2},
          {paper::Property::kE, 3}, {paper::Property::kC, 3},
          {paper::Property::kD, 3}, {paper::Property::kF, 3},
          {paper::Property::kD, 2}, {paper::Property::kF, 2},
          {paper::Property::kD, 4}, {paper::Property::kF, 4}};
}

Report run_sweep(const Options& options, std::ostream* progress) {
  Report report;
  for (std::size_t ci = 0; ci < options.cells.size(); ++ci) {
    const Cell& cell = options.cells[ci];
    std::uint64_t cell_violations = 0;
    for (int k = 0; k < options.cases_per_cell; ++k) {
      SplitMix64 rng(derive_seed(
          options.seed, ci * 1000003ull + static_cast<std::uint64_t>(k)));
      CaseSpec spec;
      spec.property = cell.property;
      spec.num_processes = cell.num_processes;
      spec.mode = (k % 2 == 0) ? Mode::kReplay : Mode::kSim;
      spec.internal_events = options.internal_events;
      spec.comm_mu = options.comm_mu;
      spec.trace_seed = rng.next();
      spec.sim_seed = rng.next();
      spec.schedule_seed = rng.next();
      spec.oracle_max_nodes = options.oracle_max_nodes;
      spec.fault = random_fault_config(rng, options.lose_dropped,
                                       options.lossy);
      spec.reliable_channel = options.reliable_channel || options.crash;
      if (spec.reliable_channel) spec.channel.seed = rng.next();
      spec.gc = options.gc;
      if (options.crash) {
        // Every node broadcasts at least a termination token, so small
        // crash_after values always trip; down_deliveries controls how much
        // traffic the dead node swallows before the restart trigger.
        spec.crash.node =
            static_cast<int>(rng.next() % static_cast<std::uint64_t>(
                                              cell.num_processes));
        spec.crash.crash_after = rng.next() % 3;
        spec.crash.down_deliveries = 1 + rng.next() % 3;
      }
      if (options.on_case_start) options.on_case_start(make_partial_repro(spec));

      CaseOutcome out;
      try {
        out = execute_case(spec, nullptr);
      } catch (const std::length_error&) {
        ++report.skipped;  // oracle lattice past max_nodes: not evaluable
        continue;
      }
      ++report.cases;
      report.faults.messages += out.faults.messages;
      report.faults.delay_spikes += out.faults.delay_spikes;
      report.faults.reordered += out.faults.reordered;
      report.faults.duplicated += out.faults.duplicated;
      report.faults.dropped += out.faults.dropped;
      report.faults.lost += out.faults.lost;
      report.channel += out.channel;
      report.crash.crashes += out.crash.crashes;
      report.crash.restarts += out.crash.restarts;
      report.crash.checkpoints_taken += out.crash.checkpoints_taken;
      report.crash.checkpoint_bytes += out.crash.checkpoint_bytes;
      report.crash.dropped_while_down += out.crash.dropped_while_down;
      report.crash.journal_replayed += out.crash.journal_replayed;

      const auto [kind, detail] = check_contract(out);
      if (kind.empty()) continue;
      ++report.violation_count;
      ++cell_violations;
      Violation v;
      v.property = spec.property;
      v.num_processes = spec.num_processes;
      v.mode = spec.mode;
      v.kind = kind;
      v.detail = detail;
      if (report.violations.size() <
          static_cast<std::size_t>(options.max_repros)) {
        v.repro = make_repro(spec, out, kind);
      }
      report.violations.push_back(std::move(v));
      if (report.violations.size() >=
          static_cast<std::size_t>(options.max_repros)) {
        // Keep counting violations, stop accumulating Violation entries.
        report.violations.resize(
            static_cast<std::size_t>(options.max_repros));
      }
    }
    if (progress) {
      *progress << "cell " << paper::name(cell.property) << "/n="
                << cell.num_processes << ": " << options.cases_per_cell
                << " cases, " << cell_violations << " violations\n";
    }
  }
  return report;
}

ReproOutcome run_repro(const std::string& repro_text) {
  std::istringstream is(repro_text);
  std::string line;
  if (!std::getline(is, line) ||
      (line != "decmon-fuzz-repro v1" && line != "decmon-fuzz-repro v2")) {
    throw std::runtime_error("fuzz repro: bad header");
  }
  CaseSpec spec;
  std::string log_text;
  bool have_log = false;
  bool partial = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "eventlog") {
      std::ostringstream rest;
      rest << is.rdbuf();
      log_text = rest.str();
      have_log = true;
      break;
    } else if (key == "property") {
      std::string name;
      ls >> name;
      spec.property = property_from_name(name);
    } else if (key == "processes") {
      ls >> spec.num_processes;
    } else if (key == "mode") {
      std::string m;
      ls >> m;
      if (m == "sim") spec.mode = Mode::kSim;
      else if (m == "replay") spec.mode = Mode::kReplay;
      else throw std::runtime_error("fuzz repro: bad mode " + m);
    } else if (key == "internal_events") {
      ls >> spec.internal_events;
    } else if (key == "comm_mu") {
      ls >> spec.comm_mu;
    } else if (key == "trace_seed") {
      ls >> spec.trace_seed;
    } else if (key == "sim_seed") {
      ls >> spec.sim_seed;
    } else if (key == "schedule_seed") {
      ls >> spec.schedule_seed;
    } else if (key == "oracle_max_nodes") {
      ls >> spec.oracle_max_nodes;
    } else if (key == "fault") {
      std::string rest;
      std::getline(ls, rest);
      spec.fault = fault_from_string(rest);
    } else if (key == "channel") {
      std::string rest;
      std::getline(ls, rest);
      spec.channel = channel_from_string(rest);
      spec.reliable_channel = true;
    } else if (key == "crash") {
      std::string rest;
      std::getline(ls, rest);
      spec.crash = crash_from_string(rest);
    } else if (key == "gc") {
      int b = 0;
      ls >> b;
      spec.gc = b != 0;
    } else if (key == "partial") {
      int b = 0;
      ls >> b;
      partial = b != 0;
    } else if (key == "kind" || key == "oracle" || key == "monitor") {
      // Recorded outcome: informational; the repro re-derives it.
    } else {
      throw std::runtime_error("fuzz repro: unknown field " + key);
    }
  }
  // A partial (watchdog) blob carries no event log; both modes regenerate
  // the computation from the recorded seeds instead.
  if (!have_log && !partial) {
    throw std::runtime_error("fuzz repro: missing event log");
  }

  CaseOutcome out;
  if (spec.mode == Mode::kReplay && have_log) {
    AtomRegistry registry = paper::make_registry(spec.num_processes);
    Computation comp =
        relabel(computation_from_event_log(log_text), registry);
    out = execute_case(spec, &comp);
  } else {
    // Sim repros regenerate the run (and hence the identical history) from
    // the recorded seeds; the simulator is deterministic.
    out = execute_case(spec, nullptr);
  }

  ReproOutcome outcome;
  const auto [kind, detail] = check_contract(out);
  outcome.violation = !kind.empty();
  outcome.kind = kind;
  outcome.detail = detail;
  outcome.oracle = out.oracle;
  outcome.monitor = out.monitor;
  outcome.all_finished = out.all_finished;
  return outcome;
}

}  // namespace decmon::fuzz
