#include "decmon/automata/ltl3_monitor.hpp"

#include <gtest/gtest.h>

#include <random>

#include "../common/random_formula.hpp"
#include "decmon/ltl/eval.hpp"
#include "decmon/ltl/formula.hpp"
#include "decmon/ltl/parser.hpp"

namespace decmon {
namespace {

constexpr AtomSet kA = 0b01;
constexpr AtomSet kB = 0b10;

TEST(Ltl3Monitor, EventuallyVerdicts) {
  FormulaPtr f = f_eventually(f_atom(0));
  MonitorAutomaton m = synthesize_monitor(f);
  EXPECT_EQ(m.verdict(m.run({})), Verdict::kUnknown);
  EXPECT_EQ(m.verdict(m.run({0, 0})), Verdict::kUnknown);
  EXPECT_EQ(m.verdict(m.run({0, kA})), Verdict::kTrue);
  EXPECT_EQ(m.verdict(m.run({0, kA, 0})), Verdict::kTrue);  // irrevocable
}

TEST(Ltl3Monitor, AlwaysVerdicts) {
  FormulaPtr f = f_always(f_atom(0));
  MonitorAutomaton m = synthesize_monitor(f);
  EXPECT_EQ(m.verdict(m.run({kA, kA})), Verdict::kUnknown);
  EXPECT_EQ(m.verdict(m.run({kA, 0})), Verdict::kFalse);
  EXPECT_EQ(m.verdict(m.run({kA, 0, kA})), Verdict::kFalse);
}

TEST(Ltl3Monitor, MinimizedEventuallyIsTwoStates) {
  MonitorAutomaton m = synthesize_monitor(f_eventually(f_atom(0)));
  EXPECT_EQ(m.num_states(), 2);
  EXPECT_EQ(m.verdict(m.initial_state()), Verdict::kUnknown);
}

TEST(Ltl3Monitor, UntilVerdicts) {
  // a U b: FALSE once !a && !b; TRUE once b.
  MonitorAutomaton m = synthesize_monitor(f_until(f_atom(0), f_atom(1)));
  EXPECT_EQ(m.verdict(m.run({kA, kA})), Verdict::kUnknown);
  EXPECT_EQ(m.verdict(m.run({kA, kB})), Verdict::kTrue);
  EXPECT_EQ(m.verdict(m.run({kB})), Verdict::kTrue);
  EXPECT_EQ(m.verdict(m.run({kA, 0})), Verdict::kFalse);
  EXPECT_EQ(m.verdict(m.run({0})), Verdict::kFalse);
}

TEST(Ltl3Monitor, NextVerdicts) {
  MonitorAutomaton m = synthesize_monitor(f_next(f_atom(0)));
  EXPECT_EQ(m.verdict(m.run({0})), Verdict::kUnknown);
  EXPECT_EQ(m.verdict(m.run({0, kA})), Verdict::kTrue);
  EXPECT_EQ(m.verdict(m.run({kA, 0})), Verdict::kFalse);
}

TEST(Ltl3Monitor, NonMonitorableGF) {
  // G F a never reaches a definite verdict on any finite trace.
  MonitorAutomaton m = synthesize_monitor(f_always(f_eventually(f_atom(0))));
  std::mt19937_64 rng(5);
  for (int iter = 0; iter < 50; ++iter) {
    auto word = testing::random_word(rng, 1, 1 + static_cast<int>(rng() % 8));
    EXPECT_EQ(m.verdict(m.run(word)), Verdict::kUnknown);
  }
  // Minimization collapses it to a single ? state.
  EXPECT_EQ(m.num_states(), 1);
}

TEST(Ltl3Monitor, SafetyNeverTrue) {
  // G a can never be satisfied by a finite prefix.
  MonitorAutomaton m = synthesize_monitor(f_always(f_atom(0)));
  std::mt19937_64 rng(6);
  for (int iter = 0; iter < 50; ++iter) {
    auto word = testing::random_word(rng, 1, 1 + static_cast<int>(rng() % 8));
    EXPECT_NE(m.verdict(m.run(word)), Verdict::kTrue);
  }
}

TEST(Ltl3Monitor, PaperRunningExample) {
  // psi = G((x1 >= 5) -> ((x2 >= 15) U (x1 == 10))), Fig. 2.3.
  AtomRegistry reg(2);
  reg.declare_variable(0, "x1");
  reg.declare_variable(1, "x2");
  FormulaPtr psi =
      parse_ltl("G((x1 >= 5) -> ((x2 >= 15) U (x1 == 10)))", reg);
  MonitorAutomaton m = synthesize_monitor(psi);
  // The monitor has exactly the three states of Fig. 2.3 (q0, q1, qF).
  EXPECT_EQ(m.num_states(), 3);
  int unknown = 0;
  int fals = 0;
  int tru = 0;
  for (int q = 0; q < m.num_states(); ++q) {
    switch (m.verdict(q)) {
      case Verdict::kUnknown: ++unknown; break;
      case Verdict::kFalse: ++fals; break;
      case Verdict::kTrue: ++tru; break;
    }
  }
  EXPECT_EQ(unknown, 2);
  EXPECT_EQ(fals, 1);
  EXPECT_EQ(tru, 0);

  // Atoms: bit0 = (x1 >= 5), bit1 = (x2 >= 15), bit2 = (x1 == 10).
  auto letter = [&](std::int64_t x1, std::int64_t x2) {
    return reg.evaluate({{x1}, {x2}});
  };
  // The path beta from Chapter 3 stays inconclusive:
  // x1: 0 -> 0 -> 0 -> 0 -> 5 -> 5 -> 10; x2: 0 -> 15 -> 20 -> 20 ...
  std::vector<AtomSet> beta{letter(0, 0),  letter(0, 0),  letter(0, 15),
                            letter(0, 20), letter(5, 20), letter(5, 20),
                            letter(10, 20)};
  EXPECT_EQ(m.verdict(m.run(beta)), Verdict::kUnknown);
  // A path going through x1=5 with x2 < 15 violates.
  std::vector<AtomSet> bad{letter(0, 0), letter(5, 0)};
  EXPECT_EQ(m.verdict(m.run(bad)), Verdict::kFalse);
}

TEST(Ltl3Monitor, ValidatePassesOnSynthesizedAutomata) {
  std::mt19937_64 rng(77);
  for (int iter = 0; iter < 25; ++iter) {
    FormulaPtr f = testing::random_formula(rng, 2, 3);
    MonitorAutomaton m = synthesize_monitor(f);  // validate=true built in
    EXPECT_FALSE(m.validate().has_value());
  }
}

TEST(Ltl3Monitor, FinalStatesAreAbsorbingTrueLoops) {
  MonitorAutomaton m = synthesize_monitor(f_eventually(f_atom(0)));
  for (int q = 0; q < m.num_states(); ++q) {
    if (!m.is_final(q)) continue;
    const auto& out = m.transitions_from(q);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(m.transition(out[0]).self_loop());
    EXPECT_TRUE(m.transition(out[0]).guard.is_true());
  }
}

TEST(Ltl3Monitor, MinimizationNeverGrows) {
  std::mt19937_64 rng(13);
  for (int iter = 0; iter < 25; ++iter) {
    FormulaPtr f = testing::random_formula(rng, 2, 3);
    MooreTable raw = build_moore_table(f);
    MooreTable min = minimize_moore(raw);
    EXPECT_LE(min.num_states, raw.num_states);
    // Same language: equal verdicts on random traces.
    MonitorAutomaton m_raw = monitor_from_table(raw);
    MonitorAutomaton m_min = monitor_from_table(min);
    for (int w = 0; w < 20; ++w) {
      auto word = testing::random_word(rng, 2, static_cast<int>(rng() % 6));
      EXPECT_EQ(m_raw.verdict(m_raw.run(word)),
                m_min.verdict(m_min.run(word)));
    }
  }
}

// Verdict semantics, checked against the lasso oracle:
//  - TRUE  => every sampled infinite extension satisfies the formula.
//  - FALSE => every sampled infinite extension violates it.
//  - verdicts are monotone (never change once definite).
TEST(Ltl3MonitorProperty, VerdictSoundAgainstLassoOracle) {
  std::mt19937_64 rng(101);
  for (int iter = 0; iter < 60; ++iter) {
    FormulaPtr f = testing::random_formula(rng, 2, 3);
    MonitorAutomaton m = synthesize_monitor(f);
    for (int w = 0; w < 6; ++w) {
      auto word = testing::random_word(rng, 2, static_cast<int>(rng() % 5));
      const Verdict v = m.verdict(m.run(word));
      // Check against all small extensions.
      for (int llen = 1; llen <= 2; ++llen) {
        for_each_lasso(2, 0, llen, [&](const std::vector<AtomSet>&,
                                       const std::vector<AtomSet>& loop) {
          const bool sat = lasso_satisfies(f, word, loop);
          if (v == Verdict::kTrue) {
            EXPECT_TRUE(sat) << f->to_string();
          }
          if (v == Verdict::kFalse) {
            EXPECT_FALSE(sat) << f->to_string();
          }
          return true;
        });
      }
    }
  }
}

// Monotonicity: once TRUE/FALSE, extending the trace never changes it.
TEST(Ltl3MonitorProperty, VerdictsAreIrrevocable) {
  std::mt19937_64 rng(555);
  for (int iter = 0; iter < 40; ++iter) {
    FormulaPtr f = testing::random_formula(rng, 2, 3);
    MonitorAutomaton m = synthesize_monitor(f);
    auto word = testing::random_word(rng, 2, 8);
    int q = m.initial_state();
    Verdict seen = Verdict::kUnknown;
    for (AtomSet letter : word) {
      q = *m.step(q, letter);
      const Verdict v = m.verdict(q);
      if (seen != Verdict::kUnknown) {
        EXPECT_EQ(v, seen) << f->to_string();
      } else {
        seen = v;
      }
    }
  }
}

// Duality: monitor of !f gives the opposite definite verdicts.
TEST(Ltl3MonitorProperty, NegationSwapsVerdicts) {
  std::mt19937_64 rng(8);
  for (int iter = 0; iter < 40; ++iter) {
    FormulaPtr f = testing::random_formula(rng, 2, 3);
    MonitorAutomaton mf = synthesize_monitor(f);
    MonitorAutomaton mn = synthesize_monitor(f_not(f));
    for (int w = 0; w < 10; ++w) {
      auto word = testing::random_word(rng, 2, static_cast<int>(rng() % 6));
      const Verdict vf = mf.verdict(mf.run(word));
      const Verdict vn = mn.verdict(mn.run(word));
      switch (vf) {
        case Verdict::kTrue: EXPECT_EQ(vn, Verdict::kFalse); break;
        case Verdict::kFalse: EXPECT_EQ(vn, Verdict::kTrue); break;
        case Verdict::kUnknown: EXPECT_EQ(vn, Verdict::kUnknown); break;
      }
    }
  }
}

TEST(Ltl3Monitor, EvaluateConvenience) {
  EXPECT_EQ(evaluate_ltl3(f_eventually(f_atom(0)), {0, kA}), Verdict::kTrue);
  EXPECT_EQ(evaluate_ltl3(f_always(f_atom(0)), {0}), Verdict::kFalse);
  EXPECT_EQ(evaluate_ltl3(f_always(f_atom(0)), {kA}), Verdict::kUnknown);
}

}  // namespace
}  // namespace decmon
