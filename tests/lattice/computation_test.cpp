#include "decmon/lattice/computation.hpp"

#include <gtest/gtest.h>

#include "../common/paper_example.hpp"
#include "decmon/lattice/lattice.hpp"

namespace decmon {
namespace {

using testing::PaperExample;

TEST(Computation, PaperExampleShape) {
  PaperExample ex;
  const Computation& c = ex.computation;
  EXPECT_EQ(c.num_processes(), 2);
  EXPECT_EQ(c.num_events(0), 4u);
  EXPECT_EQ(c.num_events(1), 4u);
  EXPECT_EQ(c.total_events(), 8u);
  EXPECT_EQ(c.event(0, 1).type, EventType::kSend);
  EXPECT_EQ(c.event(1, 1).type, EventType::kReceive);
  EXPECT_EQ(c.event(0, 2).state, (LocalState{5}));
  EXPECT_EQ(c.event(1, 3).state, (LocalState{20}));
}

TEST(Computation, HappenedBeforeViaClocks) {
  PaperExample ex;
  const Computation& c = ex.computation;
  // e1_0 (send) happened-before e2_2 (x2 = 20): paper's example.
  EXPECT_TRUE(c.event(0, 1).vc.happened_before(c.event(1, 3).vc));
  // e1_2 (x1=10) concurrent with e2_1 (x2=15): paper's example (e12 || e21).
  EXPECT_TRUE(c.event(0, 3).vc.concurrent_with(c.event(1, 2).vc));
}

TEST(Computation, ConsistencyMatchesPaper) {
  PaperExample ex;
  const Computation& c = ex.computation;
  // Frontier <e1_1, e2_0> == cut {2, 1}: consistent (paper, after Def. 4).
  EXPECT_TRUE(c.consistent({2, 1}));
  // Frontier <e1_3, e2_2> == cut {4, 3}: NOT consistent (e1_3 receives the
  // message P2 sends at e2_3, which is outside the cut).
  EXPECT_FALSE(c.consistent({4, 3}));
  EXPECT_TRUE(c.consistent(c.bottom()));
  EXPECT_TRUE(c.consistent(c.top()));
  // P2's first event receives P1's first send: {0,1} is inconsistent.
  EXPECT_FALSE(c.consistent({0, 1}));
}

TEST(Computation, CanAdvanceRespectsCausality) {
  PaperExample ex;
  const Computation& c = ex.computation;
  // From the bottom, only P1 can move (P2 starts with a receive).
  EXPECT_TRUE(c.can_advance(c.bottom(), 0));
  EXPECT_FALSE(c.can_advance(c.bottom(), 1));
  // After P1's send, P2's receive becomes possible.
  EXPECT_TRUE(c.can_advance({1, 0}, 1));
  // At the top, nothing can advance.
  EXPECT_FALSE(c.can_advance(c.top(), 0));
  EXPECT_FALSE(c.can_advance(c.top(), 1));
  // P1's final receive needs P2's send first.
  EXPECT_FALSE(c.can_advance({3, 2}, 0));
  EXPECT_TRUE(c.can_advance({3, 4}, 0));
}

TEST(Computation, LetterAtCut) {
  PaperExample ex;
  const Computation& c = ex.computation;
  // Atoms: bit0 = x1>=5, bit1 = x2>=15, bit2 = x1==10, bit3 = x2==15.
  EXPECT_EQ(c.letter(c.bottom()), AtomSet{0});
  EXPECT_EQ(c.letter({2, 2}), AtomSet{0b1011});  // x1=5, x2=15
  EXPECT_EQ(c.letter({3, 2}), AtomSet{0b1111});  // x1=10, x2=15
  EXPECT_EQ(c.letter({3, 0}), AtomSet{0b0101});  // x1=10, x2=0
}

TEST(Computation, GlobalStateAtCut) {
  PaperExample ex;
  GlobalState g = ex.computation.global_state({2, 3});
  EXPECT_EQ(g, (GlobalState{{5}, {20}}));
}

TEST(Computation, RejectsBadIndexing) {
  // Missing initial pseudo-event.
  EXPECT_THROW(Computation({{}, {}}), std::invalid_argument);
}

TEST(Computation, AppendChecksOrderAndClockWidth) {
  PaperExample ex;
  Computation c({{ex.computation.event(0, 0)}, {ex.computation.event(1, 0)}});
  // P1's second event before its first: out of order.
  EXPECT_THROW(c.append(ex.computation.event(0, 2)), std::invalid_argument);
  Event narrow = ex.computation.event(0, 1);
  narrow.vc = VectorClock(1);
  EXPECT_THROW(c.append(narrow), std::invalid_argument);
  EXPECT_EQ(c.num_events(0), 0u);

  c.append(ex.computation.event(0, 1));
  c.append(ex.computation.event(1, 1));
  EXPECT_EQ(c.num_events(0), 1u);
  EXPECT_EQ(c.num_events(1), 1u);
  EXPECT_TRUE(c.can_advance({1, 0}, 1));
}

TEST(Lattice, PaperExampleHasSeventeenCuts) {
  PaperExample ex;
  Lattice lat = Lattice::build(ex.computation);
  // (0,0); a in 1..3 x b in 0..4 (P2 unlocked after P1's send); (4,4).
  EXPECT_EQ(lat.size(), 17u);
  EXPECT_EQ(lat.nodes()[static_cast<std::size_t>(lat.bottom())].cut,
            (Computation::Cut{0, 0}));
  EXPECT_EQ(lat.nodes()[static_cast<std::size_t>(lat.top())].cut,
            (Computation::Cut{4, 4}));
}

TEST(Lattice, EveryNodeIsConsistent) {
  PaperExample ex;
  Lattice lat = Lattice::build(ex.computation);
  for (const auto& node : lat.nodes()) {
    EXPECT_TRUE(ex.computation.consistent(node.cut));
  }
}

TEST(Lattice, PathCountPositive) {
  PaperExample ex;
  Lattice lat = Lattice::build(ex.computation);
  // Each maximal path interleaves the two processes' remaining events.
  EXPECT_GT(lat.num_paths(), 1.0);
}

TEST(Lattice, SizeCapThrows) {
  PaperExample ex;
  EXPECT_THROW(Lattice::build(ex.computation, 4), std::length_error);
}

TEST(Lattice, SequentialComputationIsAChain) {
  // Two processes, fully serialized by messages: lattice is a chain.
  AtomRegistry reg(2);
  reg.declare_variable(0, "a");
  reg.declare_variable(1, "b");
  ComputationBuilder b(2, &reg);
  const int m1 = b.send(0);
  b.receive(1, m1);
  b.internal(1, {1});
  const int m2 = b.send(1);
  b.receive(0, m2);
  b.internal(0, {1});
  Computation c = b.build();
  Lattice lat = Lattice::build(c);
  EXPECT_EQ(lat.num_paths(), 1.0);
  EXPECT_EQ(lat.size(), c.total_events() + 1);
}

TEST(Lattice, IndependentProcessesFormAGrid) {
  // No messages: the lattice is the full (k+1) x (k+1) grid.
  AtomRegistry reg(2);
  reg.declare_variable(0, "a");
  reg.declare_variable(1, "b");
  ComputationBuilder b(2, &reg);
  for (int i = 0; i < 3; ++i) {
    b.internal(0, {i});
    b.internal(1, {i});
  }
  Lattice lat = Lattice::build(b.build());
  EXPECT_EQ(lat.size(), 16u);
  // Paths in a 3x3 grid: C(6,3) = 20.
  EXPECT_EQ(lat.num_paths(), 20.0);
}

}  // namespace
}  // namespace decmon
