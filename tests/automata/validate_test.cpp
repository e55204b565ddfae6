// MonitorAutomaton::validate(): the determinism + completeness check every
// synthesized and thesis-shaped automaton passes at construction. Pins the
// failure paths and their exact messages (first offending state, then its
// lowest letter), the overlap rules (same target accepted, different
// targets rejected), contradictory cubes (match nothing), the 20-atom
// limit, and agreement with a per-letter reference scan on random
// automata.
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <random>
#include <sstream>
#include <string>

#include "decmon/automata/monitor_automaton.hpp"

namespace decmon {
namespace {

AtomSet bit(int i) { return AtomSet{1} << i; }

/// Reference: test every outgoing guard against every letter of the
/// relevant alphabet, in state order then ascending letter order.
std::optional<std::string> reference_validate(const MonitorAutomaton& m) {
  const AtomSet mask = m.relevant_atoms();
  const int k = std::popcount(mask);
  for (int q = 0; q < m.num_states(); ++q) {
    for (std::uint64_t i = 0; i < (std::uint64_t{1} << k); ++i) {
      AtomSet letter = 0;
      int b = 0;
      for (int a = 0; a < 64; ++a) {
        if (!(mask & bit(a))) continue;
        if (i & (std::uint64_t{1} << b)) letter |= bit(a);
        ++b;
      }
      int matches = 0;
      int target = -1;
      bool conflict = false;
      for (int id : m.transitions_from(q)) {
        const MonitorTransition& t = m.transition(id);
        if (!t.guard.matches(letter)) continue;
        if (matches && t.to != target) conflict = true;
        target = t.to;
        ++matches;
      }
      if (matches == 0 || conflict) {
        std::ostringstream os;
        os << "state " << q << (matches == 0 ? " has no" : " has conflicting")
           << " matching transitions for letter " << letter;
        return os.str();
      }
    }
  }
  if (m.initial_state() < 0 || m.initial_state() >= m.num_states()) {
    return "bad initial state";
  }
  return std::nullopt;
}

TEST(Validate, IncompleteStateIsReportedWithItsLowestMissingLetter) {
  // Relevant atoms 0 and 3 (letters 0, 1, 8, 9). State 0 is complete;
  // state 1 misses every letter with atom 0 clear, the lowest being 0 --
  // but state 0 is checked first, and its only gap is letter 8.
  MonitorAutomaton m;
  const int q0 = m.add_state(Verdict::kUnknown);
  const int q1 = m.add_state(Verdict::kUnknown);
  m.add_transition(q0, q0, Cube{bit(0), 0});
  m.add_transition(q0, q1, Cube{0, bit(0) | bit(3)});
  m.add_transition(q1, q1, Cube{bit(0), 0});
  EXPECT_EQ(m.validate(),
            std::optional<std::string>(
                "state 0 has no matching transitions for letter 8"));

  m.add_transition(q0, q1, Cube{bit(3), bit(0)});
  EXPECT_EQ(m.validate(),
            std::optional<std::string>(
                "state 1 has no matching transitions for letter 0"));

  m.add_transition(q1, q1, Cube{0, bit(0)});
  EXPECT_EQ(m.validate(), std::nullopt);
}

TEST(Validate, OverlappingCubesWithDifferentTargetsConflict) {
  // !p0 && p2 and !p1 && p2 overlap on {p2} (letter 4) with different
  // targets; every letter is covered.
  MonitorAutomaton m;
  const int q0 = m.add_state(Verdict::kUnknown);
  const int q1 = m.add_state(Verdict::kFalse);
  m.add_transition(q0, q0, Cube{bit(2), bit(0)});
  m.add_transition(q0, q1, Cube{bit(2), bit(1)});
  m.add_transition(q0, q0, Cube{0, bit(2)});
  m.add_transition(q0, q0, Cube{bit(0) | bit(1) | bit(2), 0});
  m.add_transition(q1, q1, Cube{});
  EXPECT_EQ(m.validate(),
            std::optional<std::string>(
                "state 0 has conflicting matching transitions for letter 4"));
}

TEST(Validate, OverlappingCubesWithTheSameTargetAreAccepted) {
  // The thesis split of !(p0 && p1) into the cubes !p0 and !p1: both match
  // letter 0 and agree on the target, so the automaton is deterministic,
  // and the dispatch table keeps the first match in insertion order.
  MonitorAutomaton m;
  const int q0 = m.add_state(Verdict::kUnknown);
  const int qf = m.add_state(Verdict::kFalse);
  const int first = m.add_transition(q0, qf, Cube{0, bit(0)});
  m.add_transition(q0, qf, Cube{0, bit(1)});
  m.add_transition(q0, q0, Cube{bit(0) | bit(1), 0});
  m.add_transition(qf, qf, Cube{});
  EXPECT_EQ(m.validate(), std::nullopt);
  m.build_dispatch();
  ASSERT_NE(m.matching_transition(q0, 0), nullptr);
  EXPECT_EQ(m.matching_transition(q0, 0)->id, first);
}

TEST(Validate, ContradictoryCubeMatchesNothing) {
  // p0 && !p0 would send every letter to qf if it matched anything; it
  // must neither conflict with the true self-loop nor count as coverage.
  MonitorAutomaton m;
  const int q0 = m.add_state(Verdict::kUnknown);
  const int qf = m.add_state(Verdict::kFalse);
  m.add_transition(q0, qf, Cube{bit(0), bit(0)});
  m.add_transition(q0, q0, Cube{0, bit(1)});
  m.add_transition(q0, q0, Cube{bit(1), 0});
  m.add_transition(qf, qf, Cube{bit(1), bit(1)});
  EXPECT_EQ(m.validate(),
            std::optional<std::string>(
                "state 1 has no matching transitions for letter 0"));
  m.add_transition(qf, qf, Cube{});
  EXPECT_EQ(m.validate(), std::nullopt);
  m.build_dispatch();
  for (AtomSet letter : {AtomSet{0}, bit(0), bit(1), bit(0) | bit(1)}) {
    EXPECT_EQ(m.step(q0, letter), std::optional<int>(q0)) << letter;
  }
}

TEST(Validate, MoreThanTwentyRelevantAtomsAreRejected) {
  // Twenty atoms are still checked exhaustively: true-when-all-hold plus
  // one !pi cube per atom, all self-loops, is complete and deterministic.
  MonitorAutomaton m;
  const int q0 = m.add_state(Verdict::kUnknown);
  m.add_transition(q0, q0, Cube{(AtomSet{1} << 20) - 1, 0});
  for (int i = 0; i < 20; ++i) m.add_transition(q0, q0, Cube{0, bit(i)});
  EXPECT_EQ(m.validate(), std::nullopt);

  m.add_transition(q0, q0, Cube{bit(20), 0});
  EXPECT_EQ(m.validate(),
            std::optional<std::string>(
                "too many relevant atoms to validate exhaustively"));
}

TEST(Validate, BadInitialStateIsReported) {
  MonitorAutomaton m;
  const int q0 = m.add_state(Verdict::kUnknown);
  m.add_transition(q0, q0, Cube{});
  m.set_initial(1);
  EXPECT_EQ(m.validate(), std::optional<std::string>("bad initial state"));
}

TEST(Validate, AgreesWithPerLetterReferenceOnRandomAutomata) {
  // Small random automata over sparse atom positions: most are incomplete
  // or conflicting, so the exact message (state, letter, kind) is compared,
  // not just validity.
  std::mt19937_64 rng(20261016);
  int valid = 0;
  for (int iter = 0; iter < 400; ++iter) {
    MonitorAutomaton m;
    const int states = 1 + static_cast<int>(rng() % 3);
    for (int q = 0; q < states; ++q) m.add_state(Verdict::kUnknown);
    const int positions[] = {0, 2, 3, 7, 9, 12};
    for (int q = 0; q < states; ++q) {
      const int transitions = 1 + static_cast<int>(rng() % 5);
      for (int t = 0; t < transitions; ++t) {
        Cube c;
        for (int a : positions) {
          switch (rng() % 5) {
            case 0: c.pos |= bit(a); break;
            case 1: c.neg |= bit(a); break;
            default: break;
          }
        }
        if (rng() % 8 == 0) c.neg |= c.pos & (~c.pos + 1);  // contradictory
        m.add_transition(q, static_cast<int>(rng() % states), c);
      }
      // Sometimes close the state with a catch-all to reach valid cases.
      if (rng() % 2) m.add_transition(q, q, Cube{});
    }
    const auto expected = reference_validate(m);
    EXPECT_EQ(m.validate(), expected) << "iteration " << iter;
    if (!expected) ++valid;
  }
  EXPECT_GT(valid, 0);
}

}  // namespace
}  // namespace decmon
