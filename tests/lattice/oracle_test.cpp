#include "decmon/lattice/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "../common/paper_example.hpp"
#include "../common/random_computation.hpp"
#include "decmon/automata/ltl3_monitor.hpp"
#include "decmon/lattice/lattice.hpp"
#include "decmon/ltl/parser.hpp"

namespace decmon {
namespace {

using testing::PaperExample;

// Brute force: enumerate every maximal lattice path, run the monitor over
// its global-state trace, collect the verdict-state set. Exponential; only
// for small lattices.
std::set<int> brute_force_final_states(const Computation& comp,
                                       const MonitorAutomaton& monitor) {
  Lattice lat = Lattice::build(comp);
  std::set<int> finals;
  struct Frame {
    int node;
    int q;
  };
  std::vector<Frame> stack;
  const int q_init = *monitor.step(monitor.initial_state(),
                                   comp.letter(comp.bottom()));
  stack.push_back({lat.bottom(), q_init});
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    bool is_max = true;
    for (int succ : lat.nodes()[static_cast<std::size_t>(f.node)].succ) {
      if (succ < 0) continue;
      is_max = false;
      const AtomSet letter =
          comp.letter(lat.nodes()[static_cast<std::size_t>(succ)].cut);
      stack.push_back({succ, *monitor.step(f.q, letter)});
    }
    if (is_max) finals.insert(f.q);
  }
  return finals;
}

// Pivot states (Def. 17) recounted over the explicit lattice: walk every
// (cut, automaton state) pair some path reaches. A cut is a pivot when an
// edge into it changes the state; the bottom cut, when the first step
// leaves q0.
std::uint64_t brute_force_pivot_states(const Computation& comp,
                                       const MonitorAutomaton& monitor) {
  Lattice lat = Lattice::build(comp);
  std::vector<bool> pivot(lat.size(), false);
  const int q0 = monitor.initial_state();
  const int q_init = *monitor.step(q0, comp.letter(comp.bottom()));
  pivot[static_cast<std::size_t>(lat.bottom())] = q_init != q0;
  std::set<std::pair<int, int>> seen{{lat.bottom(), q_init}};
  std::vector<std::pair<int, int>> stack{{lat.bottom(), q_init}};
  while (!stack.empty()) {
    const auto [node, q] = stack.back();
    stack.pop_back();
    for (int succ : lat.nodes()[static_cast<std::size_t>(node)].succ) {
      if (succ < 0) continue;
      const int t = *monitor.step(
          q, comp.letter(lat.nodes()[static_cast<std::size_t>(succ)].cut));
      if (t != q) pivot[static_cast<std::size_t>(succ)] = true;
      if (seen.insert({succ, t}).second) stack.push_back({succ, t});
    }
  }
  return static_cast<std::uint64_t>(
      std::count(pivot.begin(), pivot.end(), true));
}

void expect_matches_brute_force(const Computation& comp,
                                const MonitorAutomaton& m, const char* prop) {
  OracleResult r = oracle_evaluate(comp, m);
  EXPECT_EQ(r.final_states, brute_force_final_states(comp, m)) << prop;
  EXPECT_EQ(r.lattice_nodes, Lattice::build(comp).size()) << prop;
  EXPECT_EQ(r.pivot_states, brute_force_pivot_states(comp, m)) << prop;
}

TEST(Oracle, PaperPropertyPsiYieldsBothFalseAndUnknown) {
  // psi = G((x1 >= 5) -> ((x2 >= 15) U (x1 == 10))): Chapter 3 shows paths
  // through <e1_1, x2 < 15> evaluate to FALSE while path beta stays UNKNOWN.
  PaperExample ex;
  FormulaPtr psi =
      parse_ltl("G((x1 >= 5) -> ((x2 >= 15) U (x1 == 10)))", ex.registry);
  MonitorAutomaton m = synthesize_monitor(psi);
  OracleResult r = oracle_evaluate(ex.computation, m);
  EXPECT_EQ(r.verdicts,
            (std::set<Verdict>{Verdict::kFalse, Verdict::kUnknown}));
  EXPECT_EQ(r.lattice_nodes, 17u);
  EXPECT_GT(r.pivot_states, 0u);
}

TEST(Oracle, PaperPropertyPsiPrimeViolates) {
  // psi' = G((x1 >= 5) -> ((x2 == 15) U (x1 == 10))): Chapter 3 claims all
  // paths violate; a FALSE verdict must certainly be present.
  PaperExample ex;
  FormulaPtr psi =
      parse_ltl("G((x1 >= 5) -> ((x2 == 15) U (x1 == 10)))", ex.registry);
  MonitorAutomaton m = synthesize_monitor(psi);
  OracleResult r = oracle_evaluate(ex.computation, m);
  EXPECT_TRUE(r.verdicts.count(Verdict::kFalse));
  // Cross-check the full verdict set against brute-force path enumeration.
  std::set<Verdict> brute;
  for (int q : brute_force_final_states(ex.computation, m)) {
    brute.insert(m.verdict(q));
  }
  EXPECT_EQ(r.verdicts, brute);
}

TEST(Oracle, AgreesWithBruteForceOnPaperExample) {
  PaperExample ex;
  FormulaPtr psi =
      parse_ltl("G((x1 >= 5) -> ((x2 >= 15) U (x1 == 10)))", ex.registry);
  MonitorAutomaton m = synthesize_monitor(psi);
  OracleResult r = oracle_evaluate(ex.computation, m);
  EXPECT_EQ(r.final_states, brute_force_final_states(ex.computation, m));
}

// Randomized: DP oracle == brute force on small random computations and
// random properties over the processes' boolean vars, for 2 and 3
// processes: verdict states by path enumeration, cut and pivot counts over
// the explicit lattice.
TEST(OracleProperty, MatchesBruteForceOnRandomComputations) {
  std::mt19937_64 rng(20150715);
  const char* props[] = {
      "F(P0.p && P1.p)",
      "G(P0.p || P1.p)",
      "(P0.p) U (P1.p)",
      "G((P0.p) -> F(P1.p))",
      "G((P0.p && P1.p) U (P0.q && P1.q))",
      "X X (P0.p)",
  };
  for (int iter = 0; iter < 60; ++iter) {
    AtomRegistry reg(2);
    for (int p = 0; p < 2; ++p) {
      reg.declare_variable(p, "p");
      reg.declare_variable(p, "q");
    }
    FormulaPtr f = parse_ltl(props[iter % 6], reg);
    MonitorAutomaton m = synthesize_monitor(f);

    // Random computation: 2 processes, 3-5 events each, random messages.
    ComputationBuilder b(2, &reg);
    std::vector<std::pair<int, int>> unreceived;  // (handle, sender)
    const int k = 3 + static_cast<int>(rng() % 3);
    for (int e = 0; e < 2 * k; ++e) {
      const int p = static_cast<int>(rng() % 2);
      switch (rng() % 4) {
        case 0:
          unreceived.emplace_back(b.send(p), p);
          break;
        case 1:
          if (!unreceived.empty()) {
            // Deliver the oldest pending message to its peer (FIFO).
            auto [handle, sender] = unreceived.front();
            unreceived.erase(unreceived.begin());
            b.receive(1 - sender, handle);
            break;
          }
          [[fallthrough]];
        default:
          b.internal(p, {static_cast<std::int64_t>(rng() % 2),
                         static_cast<std::int64_t>(rng() % 2)});
      }
    }
    expect_matches_brute_force(b.build(), m, props[iter % 6]);
  }

  const char* props3[] = {
      "F(P0.p && P1.p && P2.p)",
      "G(P0.p || P1.p || P2.p)",
      "G((P0.p) -> X(P2.p))",  // several live states share a cut
      "G((P0.p) -> F(P2.q))",
      "G((P0.p && P1.p) U (P2.q))",
      "X X (P2.p)",
  };
  AtomRegistry reg3 = testing::standard_registry(3);
  for (int iter = 0; iter < 36; ++iter) {
    MonitorAutomaton m = synthesize_monitor(parse_ltl(props3[iter % 6], reg3));
    // 3 processes, 2-4 events each.
    expect_matches_brute_force(
        testing::random_computation(rng, 3, reg3, 2 + iter % 3), m,
        props3[iter % 6]);
  }
}

TEST(Oracle, ChainHasSingleVerdict) {
  // A fully sequential computation has one path, hence one verdict.
  AtomRegistry reg(2);
  reg.declare_variable(0, "p");
  reg.declare_variable(1, "p");
  FormulaPtr f = parse_ltl("F(P1.p)", reg);
  ComputationBuilder b(2, &reg);
  const int m1 = b.send(0);
  b.receive(1, m1);
  b.internal(1, {1});  // P1.p becomes true: F(P1.p) is satisfied
  Computation comp = b.build();
  OracleResult r = oracle_evaluate(comp, synthesize_monitor(f));
  EXPECT_EQ(r.verdicts, (std::set<Verdict>{Verdict::kTrue}));
  EXPECT_EQ(r.final_states.size(), 1u);
}

TEST(Oracle, CapCountsEveryVisitedCut) {
  // The cap bounds the cuts visited over all layers, not per layer.
  AtomRegistry reg = testing::standard_registry(3);
  std::mt19937_64 rng(17);
  Computation comp = testing::random_computation(rng, 3, reg, 6);
  MonitorAutomaton m =
      synthesize_monitor(parse_ltl("G((P0.p) -> F(P2.q))", reg));
  const OracleResult r = oracle_evaluate(comp, m);
  ASSERT_GT(r.lattice_nodes, 2 * (comp.total_events() + 1));
  EXPECT_NO_THROW(oracle_evaluate(comp, m, r.lattice_nodes));
  EXPECT_THROW(oracle_evaluate(comp, m, r.lattice_nodes - 1),
               std::length_error);
}

TEST(Oracle, SerializedTwelveProcessesVisitOneCutPerEvent) {
  // One causal chain through 12 processes of 40 events each: the lattice is
  // a single path. Its cuts would not fit a mixed-radix 64-bit key
  // (41^12 > 2^64).
  constexpr int kProcs = 12;
  constexpr int kEvents = 40;
  AtomRegistry reg = testing::standard_registry(kProcs);
  ComputationBuilder b(kProcs, &reg);
  int handle = -1;
  for (int p = 0; p < kProcs; ++p) {
    int made = 0;
    if (handle >= 0) {
      b.receive(p, handle);
      ++made;
    }
    for (; made < kEvents - 1; ++made) b.internal(p, {made % 2, 0});
    handle = b.send(p);
  }
  Computation comp = b.build();
  ASSERT_EQ(comp.total_events(), std::uint64_t{kProcs * kEvents});
  OracleResult r = oracle_evaluate(
      comp, synthesize_monitor(parse_ltl("G(P0.p || !P11.p)", reg)));
  EXPECT_EQ(r.lattice_nodes, comp.total_events() + 1);
  EXPECT_EQ(r.final_states.size(), 1u);
}

TEST(Oracle, IndependentProcessesVisitTheFullGrid) {
  // No messages: every combination of per-process prefixes is a cut.
  constexpr int kEvents = 60;
  AtomRegistry reg = testing::standard_registry(3);
  ComputationBuilder b(3, &reg);
  for (int p = 0; p < 3; ++p) {
    for (int e = 0; e < kEvents; ++e) b.internal(p, {e % 2, 0});
  }
  OracleResult r = oracle_evaluate(
      b.build(), synthesize_monitor(parse_ltl("F(P0.p && P1.p && P2.p)", reg)));
  EXPECT_EQ(r.lattice_nodes, std::uint64_t{(kEvents + 1) * (kEvents + 1) *
                                           (kEvents + 1)});
}

}  // namespace
}  // namespace decmon
