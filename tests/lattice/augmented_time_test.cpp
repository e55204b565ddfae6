#include "decmon/lattice/augmented_time.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "../common/random_computation.hpp"
#include "decmon/automata/ltl3_monitor.hpp"
#include "decmon/distributed/sim_runtime.hpp"
#include "decmon/ltl/parser.hpp"

namespace decmon {
namespace {

/// A computation with realistic timestamps, via the simulator.
Computation simulated(int n, std::uint64_t seed, int events = 8) {
  static AtomRegistry reg = testing::standard_registry(3);
  TraceParams params;
  params.num_processes = n;
  params.internal_events = events;
  params.seed = seed;
  SimRuntime sim(generate_trace(params), &reg);
  sim.run();
  return Computation(sim.history());
}

TEST(AugmentedTime, InfiniteEpsilonMatchesPlainOracle) {
  AtomRegistry reg = testing::standard_registry(2);
  MonitorAutomaton m =
      synthesize_monitor(parse_ltl("G((P0.p) U (P1.p))", reg));
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Computation comp = simulated(2, seed);
    OracleResult plain = oracle_evaluate(comp, m);
    OracleResult timed =
        oracle_evaluate_timed(TimedComputation(&comp, 1e18), m);
    EXPECT_EQ(timed.verdicts, plain.verdicts);
    EXPECT_EQ(timed.final_states, plain.final_states);
    EXPECT_EQ(timed.lattice_nodes, plain.lattice_nodes);
    EXPECT_EQ(timed.pivot_states, plain.pivot_states);
  }
}

TEST(AugmentedTime, TighterSkewShrinksTheLattice) {
  AtomRegistry reg = testing::standard_registry(3);
  MonitorAutomaton m =
      synthesize_monitor(parse_ltl("F(P0.p && P1.p && P2.p)", reg));
  Computation comp = simulated(3, 7, 10);
  std::uint64_t prev = 0;
  bool first = true;
  // Epsilon from hours down to milliseconds: cut counts must be monotone.
  for (double eps : {1e6, 10.0, 2.0, 0.5, 0.01}) {
    TimedComputation timed(&comp, eps);
    const std::uint64_t cuts = oracle_evaluate_timed(timed, m).lattice_nodes;
    if (!first) {
      EXPECT_LE(cuts, prev) << "eps " << eps;
    }
    prev = cuts;
    first = false;
  }
  // Near-zero skew leaves (almost) a single interleaving: one more cut per
  // event.
  TimedComputation tight(&comp, 0.0001);
  EXPECT_EQ(oracle_evaluate_timed(tight, m).lattice_nodes,
            comp.total_events() + 1);
}

TEST(AugmentedTime, CapCountsEveryVisitedCut) {
  AtomRegistry reg = testing::standard_registry(3);
  MonitorAutomaton m =
      synthesize_monitor(parse_ltl("F(P0.p && P1.p && P2.p)", reg));
  Computation comp = simulated(3, 7, 10);
  const TimedComputation timed(&comp, 2.0);
  const OracleResult r = oracle_evaluate_timed(timed, m);
  ASSERT_GT(r.lattice_nodes, comp.total_events() + 1);
  EXPECT_NO_THROW(oracle_evaluate_timed(timed, m, r.lattice_nodes));
  EXPECT_THROW(oracle_evaluate_timed(timed, m, r.lattice_nodes - 1),
               std::length_error);
}

TEST(AugmentedTime, TimestampsAgainstCausalityWedgeTheTopCut) {
  // P0 sends at time 10 and P1 receives at time 0. With skew 1 the send
  // must wait for the receive, which causally waits for the send.
  AtomRegistry reg = testing::standard_registry(2);
  MonitorAutomaton m = synthesize_monitor(parse_ltl("F(P1.p)", reg));
  ComputationBuilder b(2, &reg);
  b.receive(1, b.send(0));
  const Computation built = b.build();
  std::vector<std::vector<Event>> events(2);
  for (int p = 0; p < 2; ++p) {
    for (std::uint32_t sn = 0; sn <= built.num_events(p); ++sn) {
      events[static_cast<std::size_t>(p)].push_back(built.event(p, sn));
    }
  }
  events[0][1].time = 10.0;
  events[1][1].time = 0.0;
  const Computation comp(std::move(events));
  EXPECT_EQ(oracle_evaluate(comp, m).lattice_nodes, 3u);
  try {
    oracle_evaluate_timed(TimedComputation(&comp, 1.0), m);
    ADD_FAILURE() << "expected std::logic_error";
  } catch (const std::length_error& e) {
    ADD_FAILURE() << "wrong error: " << e.what();
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("top cut unreachable"),
              std::string::npos)
        << e.what();
  }
}

TEST(AugmentedTime, VerdictsNarrowMonotonically) {
  AtomRegistry reg = testing::standard_registry(2);
  MonitorAutomaton m =
      synthesize_monitor(parse_ltl("G((P0.p) U (P1.p))", reg));
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Computation comp = simulated(2, seed);
    OracleResult plain = oracle_evaluate(comp, m);
    OracleResult mid =
        oracle_evaluate_timed(TimedComputation(&comp, 0.5), m);
    OracleResult tight =
        oracle_evaluate_timed(TimedComputation(&comp, 0.0001), m);
    // Refinements only remove paths: state sets shrink down the chain.
    for (int q : mid.final_states) EXPECT_TRUE(plain.final_states.count(q));
    for (int q : tight.final_states) EXPECT_TRUE(mid.final_states.count(q));
    // Zero-skew leaves exactly one path, hence one final state.
    EXPECT_EQ(tight.final_states.size(), 1u);
  }
}

TEST(AugmentedTime, RefinementRespectsCausality) {
  // can_advance never allows what plain causality forbids.
  Computation comp = simulated(3, 3);
  TimedComputation timed(&comp, 0.5);
  Computation::Cut cut = comp.bottom();
  for (int p = 0; p < comp.num_processes(); ++p) {
    if (timed.can_advance(cut, p)) {
      EXPECT_TRUE(comp.consistent([&] {
        Computation::Cut c = cut;
        ++c[static_cast<std::size_t>(p)];
        return c;
      }()));
    }
  }
}

TEST(AugmentedTime, TopCutAlwaysReachableOnRealRuns) {
  // Simulator timestamps respect happened-before, so the refined order can
  // always linearize to the top.
  AtomRegistry reg = testing::standard_registry(3);
  MonitorAutomaton m =
      synthesize_monitor(parse_ltl("F(P0.p && P1.p && P2.p)", reg));
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Computation comp = simulated(3, seed);
    for (double eps : {5.0, 0.5, 0.001}) {
      EXPECT_NO_THROW(
          oracle_evaluate_timed(TimedComputation(&comp, eps), m));
    }
  }
}

}  // namespace
}  // namespace decmon
