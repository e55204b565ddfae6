// Parameterized synthesis sweep: for seeded families of random formulas,
// the whole pipeline (GPVW -> subset construction -> minimization -> cube
// extraction) agrees with the independent lasso semantics, letter by
// letter, and stays structurally valid.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "../common/random_formula.hpp"
#include "decmon/automata/buchi.hpp"
#include "decmon/automata/ltl3_monitor.hpp"
#include "decmon/ltl/eval.hpp"

namespace decmon {
namespace {

using SweepParam = std::tuple<int /*seed*/, int /*atoms*/, int /*depth*/>;

class SynthesisSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SynthesisSweep, MonitorAgreesWithLassoSemantics) {
  const auto [seed, atoms, depth] = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 2654435761u + 17);
  for (int iter = 0; iter < 12; ++iter) {
    FormulaPtr f = testing::random_formula(rng, atoms, depth);
    // Pipeline validity.
    MonitorAutomaton minimized = synthesize_monitor(f);
    SynthesisOptions raw_options;
    raw_options.minimize = false;
    MonitorAutomaton raw = synthesize_monitor(f, raw_options);
    EXPECT_LE(minimized.num_states(), raw.num_states());

    // Semantic checks against the lasso oracle.
    for (int w = 0; w < 8; ++w) {
      auto word =
          testing::random_word(rng, atoms, static_cast<int>(rng() % 6));
      const int q_min = minimized.run(word);
      const int q_raw = raw.run(word);
      EXPECT_EQ(minimized.verdict(q_min), raw.verdict(q_raw));
      const Verdict v = minimized.verdict(q_min);
      // Sample continuations: a definite verdict must bind them all.
      for (int c = 0; c < 6; ++c) {
        auto loop =
            testing::random_word(rng, atoms, 1 + static_cast<int>(rng() % 2));
        const bool sat = lasso_satisfies(f, word, loop);
        if (v == Verdict::kTrue) {
          EXPECT_TRUE(sat) << f->to_string();
        }
        if (v == Verdict::kFalse) {
          EXPECT_FALSE(sat) << f->to_string();
        }
      }
    }
  }
}

TEST_P(SynthesisSweep, NbaMatchesLassoSemantics) {
  const auto [seed, atoms, depth] = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 40503u + 3);
  for (int iter = 0; iter < 10; ++iter) {
    FormulaPtr f = testing::random_formula(rng, atoms, depth);
    Nba nba = ltl_to_nba(f);
    for (int w = 0; w < 8; ++w) {
      auto prefix =
          testing::random_word(rng, atoms, static_cast<int>(rng() % 3));
      auto loop =
          testing::random_word(rng, atoms, 1 + static_cast<int>(rng() % 3));
      EXPECT_EQ(nba.accepts_lasso(prefix, loop),
                lasso_satisfies(f, prefix, loop))
          << f->to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, SynthesisSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(2, 3)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      // std::get, not structured bindings: the macro splits arguments on
      // commas inside square brackets.
      return "seed" + std::to_string(std::get<0>(info.param)) + "_a" +
             std::to_string(std::get<1>(info.param)) + "_d" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace decmon
