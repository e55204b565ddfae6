#include "decmon/core/properties.hpp"

#include <gtest/gtest.h>

#include <random>

#include "../common/random_formula.hpp"
#include "decmon/automata/ltl3_monitor.hpp"

namespace decmon {
namespace {

using paper::Property;

struct Row {
  Property prop;
  int n;
  int total;
  int outgoing;
  int self_loops;
};

// Table 5.1 of the thesis (transition counts per automaton). Rows marked in
// EXPERIMENTS.md as internally inconsistent in the thesis (B5, C4, D4) use
// the arithmetically consistent values our parametric construction yields;
// all other rows match the thesis verbatim.
const Row kTable51[] = {
    {Property::kA, 2, 7, 4, 3},   {Property::kA, 3, 11, 7, 4},
    {Property::kA, 4, 15, 11, 4}, {Property::kA, 5, 21, 16, 5},
    {Property::kB, 2, 4, 1, 3},   {Property::kB, 3, 5, 1, 4},
    {Property::kB, 4, 6, 1, 5},   {Property::kB, 5, 7, 1, 6},
    {Property::kC, 2, 7, 4, 3},   {Property::kC, 3, 11, 7, 4},
    {Property::kC, 4, 15, 10, 5}, {Property::kC, 5, 19, 13, 6},
    {Property::kD, 2, 15, 11, 4}, {Property::kD, 3, 27, 22, 5},
    {Property::kD, 4, 43, 37, 6}, {Property::kD, 5, 63, 56, 7},
    {Property::kE, 2, 6, 1, 5},   {Property::kE, 3, 8, 1, 7},
    {Property::kE, 4, 10, 1, 9},  {Property::kE, 5, 12, 1, 11},
};

TEST(PaperProperties, Table51TransitionCounts) {
  for (const Row& row : kTable51) {
    const SharedProperty art = paper::shared_property(
        row.prop, row.n, paper::make_registry(row.n));
    const MonitorAutomaton& m = art->automaton();
    EXPECT_EQ(m.count_total(), row.total)
        << paper::name(row.prop) << "(" << row.n << ")";
    EXPECT_EQ(m.count_outgoing(), row.outgoing)
        << paper::name(row.prop) << "(" << row.n << ")";
    EXPECT_EQ(m.count_self_loops(), row.self_loops)
        << paper::name(row.prop) << "(" << row.n << ")";
  }
}

TEST(PaperProperties, PropertyFCounts) {
  // Our principled product construction for F (4 live states + violation;
  // see EXPERIMENTS.md for the comparison against the thesis's counts).
  for (int n = 2; n <= 5; ++n) {
    const SharedProperty art =
        paper::shared_property(Property::kF, n, paper::make_registry(n));
    const MonitorAutomaton& m = art->automaton();
    const int b = n - 1;
    EXPECT_EQ(m.count_total(), 4 * b * b + 16 * b + 5) << n;
    EXPECT_EQ(m.count_self_loops(), b * b + 2 * b + 2) << n;
    EXPECT_EQ(m.num_states(), 5);
  }
}

TEST(PaperProperties, AllAutomataValidate) {
  for (Property p : paper::kAllProperties) {
    for (int n = 2; n <= 5; ++n) {
      const SharedProperty art =
          paper::shared_property(p, n, paper::make_registry(n));
      EXPECT_FALSE(art->automaton().validate().has_value())
          << paper::name(p) << "(" << n << ")";
    }
  }
}

TEST(PaperProperties, FormulaTextsScale) {
  EXPECT_EQ(paper::formula_text(Property::kA, 4),
            "G((P0.p && P1.p) U (P2.p && P3.p))");
  EXPECT_EQ(paper::formula_text(Property::kA, 2), "G((P0.p) U (P1.p))");
  EXPECT_EQ(paper::formula_text(Property::kB, 3),
            "F(P0.p && P1.p && P2.p)");
  EXPECT_EQ(paper::formula_text(Property::kC, 4),
            "G((P0.p) U (P1.p && P2.p && P3.p))");
  EXPECT_EQ(paper::formula_text(Property::kD, 2),
            "G((P0.p && P1.p) U (P0.q && P1.q))");
  EXPECT_EQ(paper::formula_text(Property::kE, 2),
            "F(P0.p && P1.p && P0.q && P1.q)");
  EXPECT_EQ(paper::formula_text(Property::kF, 3),
            "G((P0.p U (P1.p && P2.p)) && (P0.q U (P1.q && P2.q)))");
}

TEST(PaperProperties, AAndCIdenticalForSmallN) {
  // "automatons A and C for the 2 processes and 3 processes experiments are
  // identical" (5.1).
  for (int n = 2; n <= 3; ++n) {
    AtomRegistry reg = paper::make_registry(n);
    const SharedProperty a_art = paper::shared_property(Property::kA, n, reg);
    const SharedProperty c_art = paper::shared_property(Property::kC, n, reg);
    const MonitorAutomaton& a = a_art->automaton();
    const MonitorAutomaton& c = c_art->automaton();
    EXPECT_EQ(a.count_total(), c.count_total());
    EXPECT_EQ(a.count_outgoing(), c.count_outgoing());
  }
}

// The hand-built automata must agree with the synthesized-and-minimized
// monitors on every trace: same verdict, letter by letter.
TEST(PaperPropertiesSemantics, HandbuiltMatchesSynthesized) {
  std::mt19937_64 rng(987);
  for (Property p : paper::kAllProperties) {
    for (int n = 2; n <= 4; ++n) {
      AtomRegistry reg = paper::make_registry(n);
      const SharedProperty art = paper::shared_property(p, n, reg);
      const MonitorAutomaton& hand = art->automaton();
      MonitorAutomaton synth = synthesize_monitor(paper::formula(p, n, reg));
      const int atoms = 2 * n;
      for (int w = 0; w < 40; ++w) {
        auto word =
            testing::random_word(rng, atoms, static_cast<int>(rng() % 10));
        EXPECT_EQ(hand.verdict(hand.run(word)),
                  synth.verdict(synth.run(word)))
            << paper::name(p) << "(" << n << ")";
      }
    }
  }
}

TEST(PaperProperties, SynthesizedAreSmallerOrEqual) {
  // Minimization pays: the synthesized automata never have more states.
  for (Property p : paper::kAllProperties) {
    AtomRegistry reg = paper::make_registry(3);
    const SharedProperty art = paper::shared_property(p, 3, reg);
    const MonitorAutomaton& hand = art->automaton();
    MonitorAutomaton synth = synthesize_monitor(paper::formula(p, 3, reg));
    EXPECT_LE(synth.num_states(), hand.num_states()) << paper::name(p);
  }
}

TEST(PaperProperties, RejectsTooFewProcesses) {
  EXPECT_THROW(paper::formula_text(Property::kA, 1), std::invalid_argument);
}

TEST(PaperProperties, RegistryMismatchThrows) {
  AtomRegistry reg = paper::make_registry(3);
  EXPECT_THROW(paper::shared_property(Property::kA, 4, reg),
               std::invalid_argument);
}

TEST(SynthesisCache, CountsHitsAndMissesPerDistinctKey) {
  paper::synthesis_cache_clear();
  AtomRegistry reg3 = paper::make_registry(3);
  paper::shared_property(Property::kD, 3, reg3);
  auto s = paper::synthesis_cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);

  paper::shared_property(Property::kD, 3, reg3);
  AtomRegistry other3 = paper::make_registry(3);  // same signature
  paper::shared_property(Property::kD, 3, other3);
  s = paper::synthesis_cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);

  AtomRegistry reg4 = paper::make_registry(4);  // different key: n changed
  paper::shared_property(Property::kD, 4, reg4);
  paper::shared_property(Property::kA, 3, reg3);  // different key: formula
  s = paper::synthesis_cache_stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 2u);
}

TEST(SynthesisCache, HitReturnsAutomatonEqualToFreshBuild) {
  paper::synthesis_cache_clear();
  for (Property p : paper::kAllProperties) {
    AtomRegistry reg = paper::make_registry(3);
    const MonitorAutomaton fresh = paper::build_automaton_uncached(p, 3, reg);
    paper::shared_property(p, 3, reg);  // miss: populate the memo
    const SharedProperty art = paper::shared_property(p, 3, reg);  // hit
    const MonitorAutomaton& cached = art->automaton();
    EXPECT_EQ(cached.num_states(), fresh.num_states()) << paper::name(p);
    EXPECT_EQ(cached.initial_state(), fresh.initial_state())
        << paper::name(p);
    EXPECT_EQ(cached.count_total(), fresh.count_total()) << paper::name(p);
    EXPECT_EQ(cached.count_outgoing(), fresh.count_outgoing())
        << paper::name(p);
    EXPECT_EQ(cached.count_self_loops(), fresh.count_self_loops())
        << paper::name(p);
    for (int q = 0; q < fresh.num_states(); ++q) {
      EXPECT_EQ(cached.verdict(q), fresh.verdict(q))
          << paper::name(p) << " state " << q;
    }
    EXPECT_FALSE(cached.validate().has_value()) << paper::name(p);
  }
}

TEST(SynthesisCache, HandsOutIndependentCopies) {
  paper::synthesis_cache_clear();
  AtomRegistry reg = paper::make_registry(3);
  const SharedProperty first = paper::shared_property(Property::kB, 3, reg);
  const SharedProperty second = paper::shared_property(Property::kB, 3, reg);
  EXPECT_EQ(first.get(), second.get());  // a hit is the same artifact
  const int states = first->automaton().num_states();
  MonitorAutomaton copy = first->automaton();
  copy.add_state(Verdict::kUnknown);  // mutate a caller-owned copy
  const SharedProperty again = paper::shared_property(Property::kB, 3, reg);
  EXPECT_EQ(again->automaton().num_states(), states);  // memo untouched
}

TEST(SynthesisCache, ClearResetsMemoAndCounters) {
  paper::synthesis_cache_clear();
  AtomRegistry reg = paper::make_registry(3);
  paper::shared_property(Property::kC, 3, reg);
  paper::shared_property(Property::kC, 3, reg);
  paper::synthesis_cache_clear();
  auto s = paper::synthesis_cache_stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  paper::shared_property(Property::kC, 3, reg);
  s = paper::synthesis_cache_stats();
  EXPECT_EQ(s.misses, 1u);  // really rebuilt, not served stale
  EXPECT_EQ(s.hits, 0u);
}

}  // namespace
}  // namespace decmon
