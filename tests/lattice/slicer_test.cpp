#include "decmon/lattice/slicer.hpp"

#include <gtest/gtest.h>

#include <random>

#include "../common/paper_example.hpp"
#include "decmon/lattice/lattice.hpp"

namespace decmon {
namespace {

using testing::PaperExample;

// Brute force: smallest-cardinality consistent cut >= from whose frontier
// satisfies pred, via explicit lattice enumeration.
std::optional<Computation::Cut> brute_force_least(const Computation& comp,
                                                  const Cube& pred,
                                                  const Computation::Cut& from) {
  Lattice lat = Lattice::build(comp);
  std::optional<Computation::Cut> best;
  auto dominates = [](const Computation::Cut& a, const Computation::Cut& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] < b[i]) return false;
    }
    return true;
  };
  for (const auto& node : lat.nodes()) {
    if (!dominates(node.cut, from)) continue;
    if (!pred.matches(comp.letter(node.cut))) continue;
    if (!best || dominates(*best, node.cut)) best = node.cut;
  }
  return best;
}

TEST(Slicer, ConsistentClosureOnPaperExample) {
  PaperExample ex;
  // Cut {0, 1} needs P1's send pulled in: closure is {1, 1}.
  EXPECT_EQ(consistent_closure(ex.computation, {0, 1}),
            (Computation::Cut{1, 1}));
  // Cut {4, 0} needs P2 up to its send: closure is {4, 4}.
  EXPECT_EQ(consistent_closure(ex.computation, {4, 0}),
            (Computation::Cut{4, 4}));
  // Already consistent cuts are fixed points.
  EXPECT_EQ(consistent_closure(ex.computation, {2, 1}),
            (Computation::Cut{2, 1}));
}

TEST(Slicer, PaperPredicateDetection) {
  PaperExample ex;
  // B = (x1 >= 5 && x2 >= 15): atoms bit0 and bit1. The least satisfying
  // cut from bottom is <e1_1, e2_1> = {2, 2} (paper: "the global state where
  // x1 = 5 and x2 = 15" starts the satisfying sub-lattice).
  Cube pred{0b011, 0};
  auto cut = least_satisfying_cut(ex.computation, pred, ex.registry,
                                  ex.computation.bottom());
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(*cut, (Computation::Cut{2, 2}));
}

TEST(Slicer, DetectsFromLaterStart) {
  PaperExample ex;
  // Same predicate but starting past e1_2 (x1 = 10 still >= 5).
  Cube pred{0b011, 0};
  auto cut = least_satisfying_cut(ex.computation, pred, ex.registry,
                                  {3, 0});
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(*cut, (Computation::Cut{3, 2}));
}

TEST(Slicer, UnsatisfiablePredicateReturnsNothing) {
  PaperExample ex;
  // x1 >= 5 && !(x1 >= 5) is contradictory on the same atom.
  Cube pred{0b001, 0b001};
  EXPECT_FALSE(least_satisfying_cut(ex.computation, pred, ex.registry,
                                    ex.computation.bottom())
                   .has_value());
}

TEST(Slicer, NeverSatisfiedPredicateReturnsNothing) {
  PaperExample ex;
  // x2 >= 15 && x1 not >= 5... after x2 >= 15, x1 may still be < 5: cut
  // {1,2}. But require also x1 == 10 false and x1 >= 5 true: impossible to
  // have bit0 && !bit0. Use bit2 && !bit0: x1 == 10 implies x1 >= 5 in this
  // computation, so the predicate is never satisfied.
  Cube pred{0b100, 0b001};
  EXPECT_FALSE(least_satisfying_cut(ex.computation, pred, ex.registry,
                                    ex.computation.bottom())
                   .has_value());
}

TEST(Slicer, StartCutBeyondSatisfactionFails) {
  PaperExample ex;
  // x2 >= 15 stays true to the end, but !(x2 >= 15) from {0,2} onwards is
  // never true again.
  Cube pred{0, 0b010};
  auto cut = least_satisfying_cut(ex.computation, pred, ex.registry, {0, 2});
  EXPECT_FALSE(cut.has_value());
}

TEST(Slicer, LeastCutIsMinimal) {
  PaperExample ex;
  Cube pred{0b011, 0};
  auto fast = least_satisfying_cut(ex.computation, pred, ex.registry,
                                   ex.computation.bottom());
  auto brute = brute_force_least(ex.computation, pred,
                                 ex.computation.bottom());
  ASSERT_TRUE(fast.has_value());
  ASSERT_TRUE(brute.has_value());
  EXPECT_EQ(*fast, *brute);
}

// Property: against brute force on random computations and random cubes.
TEST(SlicerProperty, MatchesBruteForce) {
  std::mt19937_64 rng(808);
  for (int iter = 0; iter < 120; ++iter) {
    AtomRegistry reg(2);
    for (int p = 0; p < 2; ++p) {
      reg.declare_variable(p, "p");
      reg.declare_variable(p, "q");
    }
    // Atoms: P0.p, P0.q, P1.p, P1.q.
    for (int p = 0; p < 2; ++p) {
      reg.boolean_atom(p, 0);
      reg.boolean_atom(p, 1);
    }
    ComputationBuilder b(2, &reg);
    std::vector<std::pair<int, int>> pending;
    for (int e = 0; e < 8; ++e) {
      const int p = static_cast<int>(rng() % 2);
      if (rng() % 4 == 0) {
        pending.emplace_back(b.send(p), p);
      } else if (rng() % 4 == 1 && !pending.empty()) {
        auto [h, sender] = pending.front();
        pending.erase(pending.begin());
        b.receive(1 - sender, h);
      } else {
        b.internal(p, {static_cast<std::int64_t>(rng() % 2),
                       static_cast<std::int64_t>(rng() % 2)});
      }
    }
    Computation comp = b.build();
    // Random satisfiable cube over the 4 atoms.
    Cube pred;
    for (int a = 0; a < 4; ++a) {
      switch (rng() % 3) {
        case 0: pred.pos |= AtomSet{1} << a; break;
        case 1: pred.neg |= AtomSet{1} << a; break;
        default: break;
      }
    }
    auto fast = least_satisfying_cut(comp, pred, reg, comp.bottom());
    auto brute = brute_force_least(comp, pred, comp.bottom());
    EXPECT_EQ(fast.has_value(), brute.has_value());
    if (fast && brute) {
      EXPECT_EQ(*fast, *brute);
    }
  }
}

}  // namespace
}  // namespace decmon
