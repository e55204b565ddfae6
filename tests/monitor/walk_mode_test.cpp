// Pins the behavioural difference between the exact token walk (our
// default) and the thesis's join-jump walk (WalkMode::kJoinJump): on the
// same deterministic corpus, the exact walk never produces a false definite
// verdict, while the join-jump walk does (the reason it is not the
// default). See DESIGN.md, design note 2.
#include <gtest/gtest.h>

#include <random>

#include "../common/random_computation.hpp"
#include "../common/replay_driver.hpp"
#include "decmon/automata/ltl3_monitor.hpp"
#include "decmon/lattice/oracle.hpp"
#include "decmon/ltl/parser.hpp"
#include "decmon/monitor/decentralized_monitor.hpp"
#include "decmon/monitor/property_registry.hpp"

namespace decmon {
namespace {

std::vector<AtomSet> initial_letters(const Computation& comp) {
  std::vector<AtomSet> letters;
  for (int p = 0; p < comp.num_processes(); ++p) {
    letters.push_back(comp.event(p, 0).letter);
  }
  return letters;
}

/// Count contract violations (false definite verdicts or missed definite
/// verdicts) over a fixed corpus for the given walk mode.
struct Violations {
  int unsound = 0;
  int incomplete_definite = 0;
};

Violations run_corpus(WalkMode mode) {
  std::mt19937_64 rng(424242);  // fixed: the corpus is deterministic
  AtomRegistry reg = testing::standard_registry(2);
  // X-shaped properties have states without self-loops: the join-jump
  // walk's weak spot.
  const SharedProperty art = testing::admit(reg, "X X (P0.p && P1.q)");
  MonitorOptions options;
  options.walk_mode = mode;

  Violations v;
  for (int iter = 0; iter < 400; ++iter) {
    Computation comp = testing::random_computation(
        rng, 2, reg, 3 + static_cast<int>(rng() % 4));
    OracleResult oracle = oracle_evaluate(comp, art->automaton());
    const std::uint64_t seed = rng();
    testing::ReplayDriver driver;
    DecentralizedMonitor dm(property_handle(art), &driver,
                            initial_letters(comp), options);
    driver.run(comp, dm, seed);
    SystemVerdict result = dm.result();
    for (Verdict x : result.verdicts) {
      if (x != Verdict::kUnknown && !oracle.verdicts.count(x)) ++v.unsound;
    }
    for (Verdict x : oracle.verdicts) {
      if (x != Verdict::kUnknown && !result.verdicts.count(x)) {
        ++v.incomplete_definite;
      }
    }
  }
  return v;
}

TEST(WalkMode, ExactWalkIsSoundOnXShapedCorpus) {
  Violations v = run_corpus(WalkMode::kExact);
  EXPECT_EQ(v.unsound, 0);
  EXPECT_EQ(v.incomplete_definite, 0);
}

TEST(WalkMode, JoinJumpWalkIsMeasurablyUnsound) {
  // The deviation this test pins: the thesis's join skips lattice depths,
  // so X-shaped predicates fire at the wrong position. If this ever starts
  // passing with zero violations, the join-jump implementation no longer
  // reproduces the thesis behaviour -- investigate before "fixing" it.
  Violations v = run_corpus(WalkMode::kJoinJump);
  EXPECT_GT(v.unsound, 0);
}

TEST(WalkMode, JoinJumpStillDetectsPlainReachableVerdicts) {
  // On safety/co-safety shapes with self-loops everywhere, both modes find
  // the definite verdicts.
  std::mt19937_64 rng(99);
  AtomRegistry reg = testing::standard_registry(2);
  const SharedProperty art = testing::admit(reg, "F(P0.p && P1.p)");
  MonitorOptions jump;
  jump.walk_mode = WalkMode::kJoinJump;
  for (int iter = 0; iter < 40; ++iter) {
    Computation comp = testing::random_computation(rng, 2, reg, 5);
    OracleResult oracle = oracle_evaluate(comp, art->automaton());
    testing::ReplayDriver driver;
    DecentralizedMonitor dm(property_handle(art), &driver,
                            initial_letters(comp), jump);
    driver.run(comp, dm, rng());
    if (oracle.verdicts.count(Verdict::kTrue)) {
      EXPECT_TRUE(dm.result().verdicts.count(Verdict::kTrue));
    }
    EXPECT_TRUE(dm.all_finished());
  }
}

}  // namespace
}  // namespace decmon
