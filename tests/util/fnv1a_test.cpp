#include "decmon/util/fnv1a.hpp"

#include <gtest/gtest.h>

namespace decmon {
namespace {

TEST(Fnv1a, KeepsTheCheckpointedValues) {
  // Probe signatures and the spawn memo are checkpointed, so the mixer's
  // values are part of the checkpoint format. The expected values were
  // computed outside the program from the basis and prime in fnv1a.hpp.
  Fnv1a h;
  EXPECT_EQ(h.value(), 0x14650fb0739d0383ull);
  h.mix(0x61);
  EXPECT_EQ(h.value(), 0x44bd8ad473cd9906ull);
  Fnv1a words;
  for (std::uint64_t x : {3, 1, 4}) words.mix(x);
  EXPECT_EQ(words.value(), 0x8f4b3e4f2bdd4075ull);
}

}  // namespace
}  // namespace decmon
