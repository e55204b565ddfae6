#include "decmon/monitor/predicate.hpp"

#include <gtest/gtest.h>

#include "../common/random_computation.hpp"

namespace decmon {
namespace {

TEST(CompiledProperty, SplitsGuardsByProcess) {
  AtomRegistry reg = testing::standard_registry(2);
  const SharedProperty art = testing::admit(reg, "F(P0.p && P1.p)");
  const CompiledProperty& prop = art->property();
  EXPECT_EQ(prop.num_processes(), 2);

  // The outgoing transition from the initial state is P0.p && P1.p.
  const auto& out = prop.outgoing(prop.initial_state());
  ASSERT_EQ(out.size(), 1u);
  const CompiledTransition& t = prop.transition(out[0]);
  EXPECT_EQ(t.participants, (std::vector<int>{0, 1}));
  EXPECT_FALSE(t.local[0].is_true());
  EXPECT_FALSE(t.local[1].is_true());
  // Local cubes over the right atoms: P0.p is atom 0, P1.p is atom 2.
  EXPECT_EQ(t.local[0].pos, AtomSet{1} << 0);
  EXPECT_EQ(t.local[1].pos, AtomSet{1} << 2);
}

TEST(CompiledProperty, SelfLoopsAndOutgoingPartition) {
  AtomRegistry reg = testing::standard_registry(2);
  const SharedProperty art = testing::admit(reg, "F(P0.p && P1.p)");
  const CompiledProperty& prop = art->property();
  const MonitorAutomaton& m = art->automaton();
  int total = 0;
  for (int q = 0; q < m.num_states(); ++q) {
    total += static_cast<int>(prop.outgoing(q).size());
    total += static_cast<int>(prop.self_loops(q).size());
    for (int tid : prop.self_loops(q)) {
      EXPECT_TRUE(prop.transition(tid).self_loop);
    }
    for (int tid : prop.outgoing(q)) {
      EXPECT_FALSE(prop.transition(tid).self_loop);
    }
  }
  EXPECT_EQ(total, m.num_transitions());
}

TEST(CompiledProperty, LocallySatisfied) {
  AtomRegistry reg = testing::standard_registry(2);
  const SharedProperty art = testing::admit(reg, "F(P0.p && !P0.q && P1.p)");
  const CompiledProperty& prop = art->property();
  const int tid = prop.outgoing(prop.initial_state())[0];
  // P0's part: p && !q. Atom bits: P0.p=0, P0.q=1.
  EXPECT_TRUE(prop.locally_satisfied(tid, 0, 0b01));
  EXPECT_FALSE(prop.locally_satisfied(tid, 0, 0b11));
  EXPECT_FALSE(prop.locally_satisfied(tid, 0, 0b00));
  // P1's part: p. Atom bits: P1.p=2.
  EXPECT_TRUE(prop.locally_satisfied(tid, 1, 0b100));
  EXPECT_FALSE(prop.locally_satisfied(tid, 1, 0b000));
}

TEST(CompiledProperty, NonParticipantTriviallySatisfied) {
  AtomRegistry reg = testing::standard_registry(3);
  const SharedProperty art = testing::admit(reg, "F(P0.p && P2.p)");
  const CompiledProperty& prop = art->property();
  const int tid = prop.outgoing(prop.initial_state())[0];
  EXPECT_TRUE(prop.transition(tid).local[1].is_true());
  EXPECT_TRUE(prop.locally_satisfied(tid, 1, 0));
  EXPECT_EQ(prop.transition(tid).participants, (std::vector<int>{0, 2}));
}

TEST(CompiledProperty, StepMatchesAutomaton) {
  AtomRegistry reg = testing::standard_registry(2);
  const SharedProperty art = testing::admit(reg, "G(P0.p || P1.p)");
  const CompiledProperty& prop = art->property();
  const MonitorAutomaton& m = art->automaton();
  for (AtomSet letter = 0; letter < 16; ++letter) {
    EXPECT_EQ(prop.step(m.initial_state(), letter),
              *m.step(m.initial_state(), letter));
  }
}

}  // namespace
}  // namespace decmon
