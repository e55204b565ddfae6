#include "decmon/monitor/centralized_monitor.hpp"

#include <gtest/gtest.h>

#include <random>

#include "../common/paper_example.hpp"
#include "../common/random_computation.hpp"
#include "../common/replay_driver.hpp"
#include "decmon/automata/ltl3_monitor.hpp"
#include "decmon/lattice/oracle.hpp"
#include "decmon/ltl/parser.hpp"
#include "decmon/monitor/property_registry.hpp"

namespace decmon {
namespace {

using testing::PaperExample;
using testing::ReplayDriver;

std::vector<AtomSet> initial_letters(const Computation& comp) {
  std::vector<AtomSet> letters;
  for (int p = 0; p < comp.num_processes(); ++p) {
    letters.push_back(comp.event(p, 0).letter);
  }
  return letters;
}

TEST(Centralized, MatchesOracleOnPaperExample) {
  PaperExample ex;
  const SharedProperty art =
      testing::admit(ex.registry, "G((x1 >= 5) -> ((x2 >= 15) U (x1 == 10)))");
  OracleResult oracle = oracle_evaluate(ex.computation, art->automaton());
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    ReplayDriver driver;
    CentralizedMonitor central(property_handle(art), &driver,
                               initial_letters(ex.computation));
    driver.run(ex.computation, central, seed);
    EXPECT_TRUE(central.finished()) << "seed " << seed;
    EXPECT_EQ(central.verdicts(), oracle.verdicts) << "seed " << seed;
    EXPECT_EQ(central.final_states(), oracle.final_states) << "seed " << seed;
    EXPECT_EQ(central.explored_cuts(), oracle.lattice_nodes);
  }
}

// The centralized monitor is exactly the oracle's DP run online: state sets
// at the top cut agree on random computations, for every delivery schedule.
TEST(CentralizedProperty, AlwaysMatchesOracle) {
  std::mt19937_64 rng(606);
  AtomRegistry reg = testing::standard_registry(2);
  const auto props = testing::property_suite_2();
  for (int iter = 0; iter < 60; ++iter) {
    Computation comp = testing::random_computation(rng, 2, reg, 4);
    const SharedProperty art = testing::admit(reg, props[iter % props.size()]);
    OracleResult oracle = oracle_evaluate(comp, art->automaton());
    ReplayDriver driver;
    CentralizedMonitor central(property_handle(art), &driver,
                               initial_letters(comp));
    driver.run(comp, central, rng());
    EXPECT_TRUE(central.finished());
    EXPECT_EQ(central.verdicts(), oracle.verdicts)
        << props[iter % props.size()];
    EXPECT_EQ(central.final_states(), oracle.final_states);
    EXPECT_EQ(central.explored_cuts(), oracle.lattice_nodes);
  }
  // Three processes: a layer waits on two peers, so random replay
  // schedules exercise the rule that says when it may advance.
  AtomRegistry reg3 = testing::standard_registry(3);
  const auto props3 = testing::property_suite_3();
  for (int iter = 0; iter < 60; ++iter) {
    Computation comp = testing::random_computation(rng, 3, reg3, 4);
    const std::string& text = props3[iter % props3.size()];
    const SharedProperty art = testing::admit(reg3, text);
    OracleResult oracle = oracle_evaluate(comp, art->automaton());
    ReplayDriver driver;
    CentralizedMonitor central(property_handle(art), &driver,
                               initial_letters(comp));
    driver.run(comp, central, rng());
    EXPECT_TRUE(central.finished());
    EXPECT_EQ(central.verdicts(), oracle.verdicts) << text;
    EXPECT_EQ(central.final_states(), oracle.final_states) << text;
    EXPECT_EQ(central.explored_cuts(), oracle.lattice_nodes) << text;
  }
}

TEST(Centralized, CountsForwardedMessages) {
  PaperExample ex;
  const SharedProperty art = testing::admit(ex.registry, "F(x1 >= 5)");
  ReplayDriver driver;
  CentralizedMonitor central(property_handle(art), &driver,
                             initial_letters(ex.computation),
                             /*central_node=*/0);
  driver.run(ex.computation, central, 1);
  // P1 is central: only P2's 4 events cross the network.
  EXPECT_EQ(central.forwarded_messages(), 4u);
}

TEST(Centralized, LatticeCapThrows) {
  // Two independent processes with many events: the cut count explodes
  // beyond a tiny cap.
  AtomRegistry reg = testing::standard_registry(2);
  ComputationBuilder b(2, &reg);
  for (int i = 0; i < 12; ++i) {
    b.internal(0, {1, 0});
    b.internal(1, {1, 0});
  }
  Computation comp = b.build();
  const SharedProperty art = testing::admit(reg, "F(P0.p && P1.q)");
  ReplayDriver driver;
  CentralizedMonitor central(property_handle(art), &driver,
                             initial_letters(comp), 0, /*max_cuts=*/50);
  EXPECT_THROW(driver.run(comp, central, 1), std::length_error);
}

TEST(Centralized, RunsPastTheOldCap) {
  // 1,101^2 = 1,212,201 cuts, past the 2^20 the map-based DP allowed; the
  // layered walk holds one anti-diagonal of 1,101 cuts at a time.
  AtomRegistry reg = testing::standard_registry(2);
  ComputationBuilder b(2, &reg);
  for (int i = 0; i < 1100; ++i) {
    b.internal(0, {i % 2, 0});
    b.internal(1, {0, i % 2});
  }
  Computation comp = b.build();
  const SharedProperty art = testing::admit(reg, "F(P0.p && P1.q)");
  OracleResult oracle = oracle_evaluate(comp, art->automaton());
  ReplayDriver driver;
  CentralizedMonitor central(property_handle(art), &driver,
                             initial_letters(comp));
  driver.run(comp, central, 1);
  EXPECT_TRUE(central.finished());
  EXPECT_EQ(central.verdicts(), oracle.verdicts);
  EXPECT_EQ(oracle.lattice_nodes, 1101u * 1101u);
  EXPECT_EQ(central.explored_cuts(), oracle.lattice_nodes);
  EXPECT_EQ(central.peak_layer_cuts(), 1101u);
}

TEST(Centralized, DeclaresVerdictBeforeCompletion) {
  // A violation reachable early is declared even before all events arrive.
  AtomRegistry reg = testing::standard_registry(2);
  ComputationBuilder b(2, &reg);
  b.internal(0, {0, 0});
  b.internal(1, {0, 0});
  Computation comp = b.build();
  // Violated at the bottom cut.
  const SharedProperty art = testing::admit(reg, "G(P0.p || P1.p)");
  ReplayDriver driver;
  CentralizedMonitor central(property_handle(art), &driver,
                             initial_letters(comp));
  // Verdict known from the initial state alone, before any event arrives.
  EXPECT_TRUE(central.verdicts().count(Verdict::kFalse));
  // P0's event moves the received top cut while the walk waits on P1, so
  // only the declaration made at the bottom layer carries the verdict.
  central.on_local_event(0, comp.event(0, 1), 0.0);
  EXPECT_TRUE(central.verdicts().count(Verdict::kFalse));
}

}  // namespace
}  // namespace decmon
