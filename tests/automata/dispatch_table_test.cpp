// The dense (state, letter) dispatch table must reproduce the linear guard
// scan exactly: same matching transition for every state and every letter,
// including letters with bits outside the relevant-atom mask. Checked
// exhaustively over the relevant alphabet for every thesis-shaped automaton
// (properties A-F at several n) and a corpus of synthesized automata, plus
// random 64-bit letters for the irrelevant-bit invariance.
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <string>
#include <vector>

#include "../common/random_formula.hpp"
#include "decmon/decmon.hpp"

namespace decmon {
namespace {

/// Expand dense index `m` over the relevant atom positions of `mask`.
AtomSet expand_letter(AtomSet mask, std::uint64_t m) {
  AtomSet letter = 0;
  int b = 0;
  for (int i = 0; i < 64; ++i) {
    if (!(mask & (AtomSet{1} << i))) continue;
    if (m & (std::uint64_t{1} << b)) letter |= AtomSet{1} << i;
    ++b;
  }
  return letter;
}

void check_dispatch_matches_linear(const MonitorAutomaton& m,
                                   const std::string& what) {
  ASSERT_TRUE(m.dispatch_built()) << what;
  const AtomSet mask = m.relevant_atoms();
  const int k = std::popcount(mask);
  ASSERT_LE(k, MonitorAutomaton::kMaxDispatchAtoms) << what;

  // Exhaustive over the relevant alphabet.
  for (int q = 0; q < m.num_states(); ++q) {
    for (std::uint64_t i = 0; i < (std::uint64_t{1} << k); ++i) {
      const AtomSet letter = expand_letter(mask, i);
      const MonitorTransition* table = m.matching_transition(q, letter);
      const MonitorTransition* linear = m.matching_transition_linear(q, letter);
      ASSERT_EQ(table, linear)
          << what << ": state " << q << " letter " << letter;
    }
  }

  // Random full-width letters: bits outside the mask must not matter.
  std::mt19937_64 rng(0xD15BA7C4u);
  for (int q = 0; q < m.num_states(); ++q) {
    for (int i = 0; i < 64; ++i) {
      const AtomSet letter = rng();
      ASSERT_EQ(m.matching_transition(q, letter),
                m.matching_transition_linear(q, letter))
          << what << ": state " << q << " letter " << letter;
    }
  }
}

TEST(DispatchTable, MatchesLinearScanOnThesisAutomata) {
  for (paper::Property p : paper::kAllProperties) {
    for (int n : {2, 3, 4, 5, 6}) {
      const SharedProperty art =
          paper::shared_property(p, n, paper::make_registry(n));
      check_dispatch_matches_linear(
          art->automaton(), paper::name(p) + " n=" + std::to_string(n));
    }
  }
}

TEST(DispatchTable, MatchesLinearScanOnSynthesizedCorpus) {
  const char* texts[] = {
      "G(P0.p)",
      "F(P0.p && P1.p)",
      "(P0.p) U (P1.p)",
      "X(X(P0.p))",
      "G(F(P0.p || P1.q))",
      "G((P0.p && P1.p) U (P2.p && P2.q))",
      "(P0.p R P1.p) && F(P2.q)",
  };
  for (const char* text : texts) {
    AtomRegistry reg = paper::make_registry(3);
    MonitorAutomaton m = synthesize_monitor(parse_ltl(text, reg));
    check_dispatch_matches_linear(m, text);
  }
}

TEST(DispatchTable, MatchesLinearScanOnRandomFormulas) {
  std::mt19937_64 rng(77);
  for (int iter = 0; iter < 40; ++iter) {
    FormulaPtr f = testing::random_formula(rng, /*num_atoms=*/4, /*depth=*/3);
    MonitorAutomaton m = synthesize_monitor(f);
    check_dispatch_matches_linear(m, "random formula #" + std::to_string(iter));
  }
}

TEST(DispatchTable, StepAgreesWithMatchingTransition) {
  const SharedProperty art = paper::shared_property(
      paper::Property::kF, 4, paper::make_registry(4));
  const MonitorAutomaton& m = art->automaton();
  std::mt19937_64 rng(5);
  for (int q = 0; q < m.num_states(); ++q) {
    for (int i = 0; i < 256; ++i) {
      const AtomSet letter = rng();
      const MonitorTransition* t = m.matching_transition(q, letter);
      const auto to = m.step(q, letter);
      ASSERT_TRUE(t != nullptr && to.has_value());
      EXPECT_EQ(*to, t->to);
    }
  }
}

TEST(DispatchTable, MutationInvalidatesAndRebuilds) {
  AtomRegistry reg = paper::make_registry(2);
  MonitorAutomaton m =
      paper::build_automaton_uncached(paper::Property::kB, 2, reg);
  EXPECT_TRUE(m.dispatch_built());
  const int q = m.add_state(Verdict::kUnknown);
  EXPECT_FALSE(m.dispatch_built());  // stale table must not be consulted
  m.add_transition(q, q, Cube{});
  m.build_dispatch();
  EXPECT_TRUE(m.dispatch_built());
  check_dispatch_matches_linear(m, "mutated B automaton");
}

TEST(DispatchTable, RelevantAtomsIsMaintainedIncrementally) {
  MonitorAutomaton m;
  const int a = m.add_state(Verdict::kUnknown);
  const int b = m.add_state(Verdict::kTrue);
  EXPECT_EQ(m.relevant_atoms(), 0u);
  m.add_transition(a, b, Cube{/*pos=*/0b101, /*neg=*/0});
  EXPECT_EQ(m.relevant_atoms(), 0b101u);
  m.add_transition(a, a, Cube{/*pos=*/0, /*neg=*/0b010});
  EXPECT_EQ(m.relevant_atoms(), 0b111u);
}

}  // namespace
}  // namespace decmon
