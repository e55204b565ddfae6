// Live monitoring of a drone swarm under the real-thread runtime.
//
// A leader (P0) and three wing drones coordinate a mission over real
// threads with message latency -- the setting of the paper's future-work
// discussion (ad-hoc swarms without NTP). Each drone has two propositions:
//   armed    -- motors armed
//   airborne -- off the ground
// Mission rule (the paper's property-D shape):
//   G( (all armed) U (all airborne) )
// "every drone stays armed until the whole formation is airborne". A wing
// drone that disarms early (low battery) violates the rule; the
// decentralized monitors catch it while the mission is still flying.
#include <atomic>
#include <iostream>

#include "decmon/decmon.hpp"

namespace {

decmon::TraceAction set_state(double wait, bool armed, bool airborne) {
  decmon::TraceAction a;
  a.kind = decmon::TraceAction::Kind::kInternal;
  a.wait = wait;
  a.state = {armed ? 1 : 0, airborne ? 1 : 0};
  return a;
}

decmon::TraceAction telemetry(double wait) {
  decmon::TraceAction a;
  a.kind = decmon::TraceAction::Kind::kComm;
  a.wait = wait;
  return a;
}

}  // namespace

int main() {
  using namespace decmon;
  constexpr int kDrones = 4;

  // Mission script: everyone arms around t=1, lifts off around t=4..6;
  // drone 3 disarms at t=3 (battery fault) before the formation is up.
  SystemTrace trace;
  trace.procs.resize(kDrones);
  for (int d = 0; d < kDrones; ++d) {
    // Drones sit armed on the pad (the rule's "until" starts satisfied).
    trace.procs[static_cast<std::size_t>(d)].initial = {1, 0};
    auto& acts = trace.procs[static_cast<std::size_t>(d)].actions;
    acts.push_back(set_state(1.0 + 0.1 * d, true, false));  // pre-flight
    acts.push_back(telemetry(0.5));
    if (d == 3) {
      acts.push_back(set_state(1.5, false, false));  // battery fault!
      acts.push_back(telemetry(0.5));
    } else {
      acts.push_back(set_state(3.0 + 0.2 * d, true, true));  // lift off
      acts.push_back(telemetry(0.5));
    }
  }

  // Variables: 0 = armed, 1 = airborne. Property D shape over "armed" and
  // "airborne" instead of p and q.
  AtomRegistry reg(kDrones);
  for (int d = 0; d < kDrones; ++d) {
    reg.declare_variable(d, "armed");
    reg.declare_variable(d, "airborne");
  }
  std::string all_armed;
  std::string all_airborne;
  for (int d = 0; d < kDrones; ++d) {
    if (d) {
      all_armed += " && ";
      all_airborne += " && ";
    }
    all_armed.append("P").append(std::to_string(d)).append(".armed");
    all_airborne.append("P").append(std::to_string(d)).append(".airborne");
  }
  const std::string rule = "G((" + all_armed + ") U (" + all_airborne + "))";
  std::cout << "mission rule: " << rule << "\n";

  FormulaPtr f = parse_ltl(rule, reg);
  const SharedProperty art =
      std::make_shared<const PropertyArtifact>(reg, synthesize_monitor(f));

  // Real threads: one per drone, telemetry with latency.
  ThreadConfig config;
  config.time_scale = 0.002;  // 1 trace second = 2 ms wall
  ThreadRuntime runtime(trace, &reg, config);
  DecentralizedMonitor monitors(
      property_handle(art), &runtime,
      initial_letters_of(reg, runtime.initial_states()));
  std::atomic<int> alarms{0};
  for (int d = 0; d < kDrones; ++d) {
    monitors.monitor(d).set_verdict_callback(
        [&alarms, d](Verdict v, double now) {
          if (v == Verdict::kFalse) {
            ++alarms;
            std::cout << "  [drone " << d << "] VIOLATION detected at t="
                      << now << "s (wall)\n";
          }
        });
  }
  runtime.set_hooks(&monitors);
  runtime.run();

  SystemVerdict verdict = monitors.result();
  std::cout << "verdict set: ";
  for (Verdict v : verdict.verdicts) std::cout << to_string(v) << ' ';
  std::cout << "\nall monitors drained: "
            << (verdict.all_finished ? "yes" : "no") << "\n"
            << "monitor messages on the wire: "
            << runtime.monitor_messages_sent() << "\n";

  // The disarm-before-liftoff must be caught on every schedule.
  return verdict.violated() && verdict.all_finished ? 0 : 1;
}
