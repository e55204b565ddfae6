#include "decmon/util/vector_clock.hpp"

#include <gtest/gtest.h>

#include <random>

namespace decmon {
namespace {

TEST(VectorClock, DefaultAndSizedConstruction) {
  VectorClock empty;
  EXPECT_TRUE(empty.empty());
  VectorClock vc(3);
  EXPECT_EQ(vc.size(), 3u);
  EXPECT_EQ(vc[0], 0u);
  EXPECT_EQ(vc[2], 0u);
}

TEST(VectorClock, TickIncrementsOneComponent) {
  VectorClock vc(3);
  vc.tick(1);
  vc.tick(1);
  vc.tick(2);
  EXPECT_EQ(vc[0], 0u);
  EXPECT_EQ(vc[1], 2u);
  EXPECT_EQ(vc[2], 1u);
  EXPECT_EQ(vc.total(), 3u);
}

TEST(VectorClock, CompareEqual) {
  VectorClock a{1, 2, 3};
  VectorClock b{1, 2, 3};
  EXPECT_EQ(a.compare(b), Causality::kEqual);
  EXPECT_EQ(a, b);
}

TEST(VectorClock, CompareBeforeAfter) {
  VectorClock a{1, 2, 3};
  VectorClock b{1, 3, 3};
  EXPECT_EQ(a.compare(b), Causality::kBefore);
  EXPECT_EQ(b.compare(a), Causality::kAfter);
  EXPECT_TRUE(a.happened_before(b));
  EXPECT_FALSE(b.happened_before(a));
  EXPECT_TRUE(a.leq(b));
  EXPECT_FALSE(b.leq(a));
}

TEST(VectorClock, CompareConcurrent) {
  VectorClock a{2, 1};
  VectorClock b{1, 2};
  EXPECT_EQ(a.compare(b), Causality::kConcurrent);
  EXPECT_TRUE(a.concurrent_with(b));
  EXPECT_TRUE(b.concurrent_with(a));
  EXPECT_FALSE(a.leq(b));
  EXPECT_FALSE(b.leq(a));
}

TEST(VectorClock, LeqIsReflexive) {
  VectorClock a{4, 0, 7};
  EXPECT_TRUE(a.leq(a));
  EXPECT_EQ(a.compare(a), Causality::kEqual);
}

TEST(VectorClock, MergeTakesComponentwiseMax) {
  VectorClock a{1, 5, 2};
  VectorClock b{3, 1, 2};
  a.merge(b);
  EXPECT_EQ(a, (VectorClock{3, 5, 2}));
}

TEST(VectorClock, StaticMaxDoesNotMutate) {
  VectorClock a{1, 5};
  VectorClock b{3, 1};
  VectorClock m = VectorClock::max(a, b);
  EXPECT_EQ(m, (VectorClock{3, 5}));
  EXPECT_EQ(a, (VectorClock{1, 5}));
  EXPECT_EQ(b, (VectorClock{3, 1}));
}

TEST(VectorClock, MergeIsUpperBound) {
  VectorClock a{2, 0, 9};
  VectorClock b{1, 4, 3};
  VectorClock m = VectorClock::max(a, b);
  EXPECT_TRUE(a.leq(m));
  EXPECT_TRUE(b.leq(m));
}

TEST(VectorClock, ToStringRendersComponents) {
  VectorClock a{1, 0, 7};
  EXPECT_EQ(a.to_string(), "[1, 0, 7]");
}

TEST(VectorClock, MessageCausalityScenario) {
  // P0 does two events, sends to P1; P1's receive merges and ticks.
  VectorClock p0(2);
  VectorClock p1(2);
  p0.tick(0);  // e0_1
  p0.tick(0);  // e0_2 (send)
  p1.tick(1);  // e1_1 concurrent with p0's events
  VectorClock before_recv = p1;
  EXPECT_TRUE(before_recv.concurrent_with(p0));
  // Receive: merge sender clock, then tick own component.
  p1.merge(p0);
  p1.tick(1);
  EXPECT_TRUE(p0.happened_before(p1));
  EXPECT_TRUE(before_recv.happened_before(p1));
}

// Property: compare() is antisymmetric and consistent with leq() on random
// clocks.
TEST(VectorClockProperty, CompareConsistentWithLeq) {
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t n = 1 + rng() % 4;
    VectorClock a(n);
    VectorClock b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<std::uint32_t>(rng() % 3);
      b[i] = static_cast<std::uint32_t>(rng() % 3);
    }
    const Causality c = a.compare(b);
    switch (c) {
      case Causality::kEqual:
        EXPECT_TRUE(a.leq(b) && b.leq(a));
        break;
      case Causality::kBefore:
        EXPECT_TRUE(a.leq(b) && !b.leq(a));
        break;
      case Causality::kAfter:
        EXPECT_TRUE(!a.leq(b) && b.leq(a));
        break;
      case Causality::kConcurrent:
        EXPECT_TRUE(!a.leq(b) && !b.leq(a));
        break;
    }
    // Antisymmetry of the relation direction.
    const Causality rc = b.compare(a);
    if (c == Causality::kBefore) {
      EXPECT_EQ(rc, Causality::kAfter);
    }
    if (c == Causality::kConcurrent) {
      EXPECT_EQ(rc, Causality::kConcurrent);
    }
  }
}

// Property: merge is associative, commutative, idempotent (join semilattice).
TEST(VectorClockProperty, MergeIsSemilatticeJoin) {
  std::mt19937_64 rng(7);
  for (int iter = 0; iter < 1000; ++iter) {
    const std::size_t n = 1 + rng() % 4;
    auto rand_vc = [&] {
      VectorClock vc(n);
      for (std::size_t i = 0; i < n; ++i) {
        vc[i] = static_cast<std::uint32_t>(rng() % 5);
      }
      return vc;
    };
    VectorClock a = rand_vc();
    VectorClock b = rand_vc();
    VectorClock c = rand_vc();
    EXPECT_EQ(VectorClock::max(a, b), VectorClock::max(b, a));
    EXPECT_EQ(VectorClock::max(a, VectorClock::max(b, c)),
              VectorClock::max(VectorClock::max(a, b), c));
    EXPECT_EQ(VectorClock::max(a, a), a);
  }
}

}  // namespace
}  // namespace decmon
