// Parser robustness: arbitrary input must either parse or raise ParseError
// -- never crash, hang, or corrupt the registry.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "decmon/ltl/parser.hpp"

namespace decmon {
namespace {

TEST(ParserFuzz, RandomAsciiNeverCrashes) {
  std::mt19937_64 rng(0xFACADE);
  const std::string alphabet =
      "PQpq01234._ UXFGRW&|!()<>=- \tabz";
  for (int iter = 0; iter < 5000; ++iter) {
    std::string input;
    const int len = static_cast<int>(rng() % 40);
    for (int i = 0; i < len; ++i) {
      input += alphabet[rng() % alphabet.size()];
    }
    AtomRegistry reg(3);
    reg.declare_variable(0, "x");
    try {
      FormulaPtr f = parse_ltl(input, reg);
      EXPECT_NE(f, nullptr);
    } catch (const ParseError&) {
      // fine
    }
  }
}

TEST(ParserFuzz, RandomBytesNeverCrash) {
  std::mt19937_64 rng(0xDECAF);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string input;
    const int len = static_cast<int>(rng() % 24);
    for (int i = 0; i < len; ++i) {
      input += static_cast<char>(rng() % 256);
    }
    AtomRegistry reg(2);
    try {
      parse_ltl(input, reg);
    } catch (const ParseError&) {
    }
  }
}

TEST(ParserFuzz, MutatedValidFormulasNeverCrash) {
  std::mt19937_64 rng(0xC0FFEE);
  const std::string base = "G((P0.p && P1.q) U (x >= 5 || !P2.p))";
  for (int iter = 0; iter < 3000; ++iter) {
    std::string input = base;
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < mutations; ++k) {
      const std::size_t pos = rng() % input.size();
      switch (rng() % 3) {
        case 0: input[pos] = static_cast<char>(rng() % 128); break;
        case 1: input.erase(pos, 1); break;
        default: input.insert(pos, 1, static_cast<char>(rng() % 128)); break;
      }
      if (input.empty()) input.push_back('p');
    }
    AtomRegistry reg(3);
    reg.declare_variable(0, "x");
    try {
      parse_ltl(input, reg);
    } catch (const ParseError&) {
    }
  }
}

TEST(ParserFuzz, DeeplyNestedFormulasParse) {
  // Deep but legal nesting should not overflow anything reasonable.
  AtomRegistry reg(1);
  std::string deep;
  const int depth = 200;
  for (int i = 0; i < depth; ++i) deep += "X(";
  deep += "P0.p";
  for (int i = 0; i < depth; ++i) deep += ")";
  FormulaPtr f = parse_ltl(deep, reg);
  EXPECT_EQ(f->tree_size(), static_cast<std::size_t>(depth + 1));
}

TEST(ParserFuzz, AtomLimitEnforced) {
  // The registry supports at most 64 atoms; the 65th throws.
  AtomRegistry reg(1);
  const int v = reg.declare_variable(0, "x");
  for (int i = 0; i < 64; ++i) {
    reg.comparison_atom(0, v, CmpOp::kEq, i);
  }
  EXPECT_THROW(reg.comparison_atom(0, v, CmpOp::kEq, 64), std::length_error);
}

}  // namespace
}  // namespace decmon
