#include "decmon/automata/analysis.hpp"

#include <gtest/gtest.h>

#include "../common/random_computation.hpp"
#include "decmon/automata/ltl3_monitor.hpp"
#include "decmon/core/properties.hpp"
#include "decmon/ltl/parser.hpp"

namespace decmon {
namespace {

TEST(AutomatonAnalysis, SafetyReachesFalseOnly) {
  AtomRegistry reg = testing::standard_registry(2);
  MonitorAutomaton m = synthesize_monitor(parse_ltl("G(P0.p)", reg));
  AutomatonAnalysis a = analyze_automaton(m);
  const int q0 = m.initial_state();
  EXPECT_TRUE(a.can_reach_false[static_cast<std::size_t>(q0)]);
  EXPECT_FALSE(a.can_reach_true[static_cast<std::size_t>(q0)]);
  EXPECT_FALSE(a.verdict_settled(q0));
  EXPECT_EQ(a.distance_to_verdict[static_cast<std::size_t>(q0)], 1);
}

TEST(AutomatonAnalysis, CoSafetyReachesTrueOnly) {
  AtomRegistry reg = testing::standard_registry(2);
  MonitorAutomaton m = synthesize_monitor(parse_ltl("F(P0.p)", reg));
  AutomatonAnalysis a = analyze_automaton(m);
  const int q0 = m.initial_state();
  EXPECT_TRUE(a.can_reach_true[static_cast<std::size_t>(q0)]);
  EXPECT_FALSE(a.can_reach_false[static_cast<std::size_t>(q0)]);
}

TEST(AutomatonAnalysis, NonMonitorableIsSettled) {
  // G F p: the single '?' state can never reach a verdict.
  AtomRegistry reg = testing::standard_registry(2);
  MonitorAutomaton m =
      synthesize_monitor(parse_ltl("G(F(P0.p))", reg));
  AutomatonAnalysis a = analyze_automaton(m);
  ASSERT_EQ(m.num_states(), 1);
  EXPECT_TRUE(a.verdict_settled(0));
  EXPECT_EQ(a.distance_to_verdict[0], AutomatonAnalysis::kUnreachable);
}

TEST(AutomatonAnalysis, FinalStatesHaveDistanceZero) {
  AtomRegistry reg = testing::standard_registry(2);
  MonitorAutomaton m =
      synthesize_monitor(parse_ltl("(P0.p) U (P1.p)", reg));
  AutomatonAnalysis a = analyze_automaton(m);
  for (int q = 0; q < m.num_states(); ++q) {
    if (m.is_final(q)) {
      EXPECT_EQ(a.distance_to_verdict[static_cast<std::size_t>(q)], 0);
      // Final states are absorbing: they only "reach" themselves.
      EXPECT_EQ(a.can_reach_false[static_cast<std::size_t>(q)],
                m.verdict(q) == Verdict::kFalse);
      EXPECT_EQ(a.can_reach_true[static_cast<std::size_t>(q)],
                m.verdict(q) == Verdict::kTrue);
    }
  }
}

TEST(AutomatonAnalysis, XPropertyDistancesCountSteps) {
  // X X p decides on the third letter: the initial state (zero letters
  // consumed) is three steps from the verdict frontier.
  AtomRegistry reg = testing::standard_registry(1);
  MonitorAutomaton m =
      synthesize_monitor(parse_ltl("X(X(P0.p))", reg));
  AutomatonAnalysis a = analyze_automaton(m);
  EXPECT_EQ(a.distance_to_verdict[static_cast<std::size_t>(
                m.initial_state())],
            3);
}

TEST(AutomatonAnalysis, MixedPropertyReachesBoth) {
  AtomRegistry reg = testing::standard_registry(2);
  MonitorAutomaton m =
      synthesize_monitor(parse_ltl("(P0.p) U (P1.p)", reg));
  AutomatonAnalysis a = analyze_automaton(m);
  const int q0 = m.initial_state();
  EXPECT_TRUE(a.can_reach_false[static_cast<std::size_t>(q0)]);
  EXPECT_TRUE(a.can_reach_true[static_cast<std::size_t>(q0)]);
}


TEST(Monitorability, ClassifiesCanonicalShapes) {
  AtomRegistry reg = testing::standard_registry(2);
  auto cls = [&](const char* text) {
    return classify(synthesize_monitor(parse_ltl(text, reg)));
  };
  EXPECT_EQ(cls("G(P0.p)"), Monitorability::kSafety);
  EXPECT_EQ(cls("F(P0.p)"), Monitorability::kCoSafety);
  EXPECT_EQ(cls("(P0.p) U (P1.p)"), Monitorability::kMonitorable);
  EXPECT_EQ(cls("G(F(P0.p))"), Monitorability::kNonMonitorable);
  EXPECT_EQ(cls("F(G(P0.p))"), Monitorability::kNonMonitorable);
  // Verdicts possible, but one branch can fall into a settled region.
  EXPECT_EQ(cls("X(P0.p) || G(F(P1.p))"),
            Monitorability::kWeaklyMonitorable);
}

TEST(Monitorability, ToStringCoversAllClasses) {
  EXPECT_EQ(to_string(Monitorability::kSafety), "safety");
  EXPECT_EQ(to_string(Monitorability::kCoSafety), "co-safety");
  EXPECT_EQ(to_string(Monitorability::kMonitorable), "monitorable");
  EXPECT_EQ(to_string(Monitorability::kWeaklyMonitorable),
            "weakly-monitorable");
  EXPECT_EQ(to_string(Monitorability::kNonMonitorable), "non-monitorable");
}

TEST(Monitorability, PaperPropertiesClassify) {
  // A/C/D/F are safety-shaped (G of an until: never satisfiable finitely);
  // B/E are co-safety (F of a state predicate).
  for (paper::Property p : paper::kAllProperties) {
    const SharedProperty art =
        paper::shared_property(p, 3, paper::make_registry(3));
    const Monitorability cls = classify(art->automaton());
    if (p == paper::Property::kB || p == paper::Property::kE) {
      EXPECT_EQ(cls, Monitorability::kCoSafety) << paper::name(p);
    } else {
      EXPECT_EQ(cls, Monitorability::kSafety) << paper::name(p);
    }
  }
}

}  // namespace
}  // namespace decmon
