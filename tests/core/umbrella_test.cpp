// Compile-level check: the umbrella header exposes the full public API in
// one include, and the major entry points are usable together.
#include "decmon/decmon.hpp"

#include <gtest/gtest.h>

namespace decmon {
namespace {

TEST(Umbrella, EndToEndThroughSingleInclude) {
  AtomRegistry reg = paper::make_registry(2);
  FormulaPtr f = parse_ltl("G((P0.p) U (P1.p))", reg);
  MonitorAutomaton m = synthesize_monitor(f);
  EXPECT_EQ(classify(m), Monitorability::kSafety);

  MonitorSession session(std::move(reg), std::move(m));
  TraceParams params = paper::experiment_params(paper::Property::kC, 2, 1);
  params.internal_events = 5;
  SystemTrace trace = generate_trace(params);
  RunResult run = session.run(trace);
  EXPECT_TRUE(run.verdict.all_finished);

  // Wire format, event logs and the oracle are reachable too.
  TokenMessage msg;
  msg.token.parent_vc = VectorClock(2);
  std::vector<std::uint8_t> bytes;
  encode_payload_into(msg, bytes);
  EXPECT_NO_THROW(decode_payload(bytes));
  SimRuntime sim(trace, &session.registry());
  sim.run();
  Computation comp(sim.history());
  EXPECT_NO_THROW(to_event_log(comp));
  EXPECT_NO_THROW(oracle_evaluate(comp, session.automaton()));
}

}  // namespace
}  // namespace decmon
