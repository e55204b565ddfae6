// The oracle's one walk over consistent cuts (Chapter 3), shared by the
// happened-before order and its clock-skew refinement: the two differ only
// in the `can_advance` predicate. Private to src/lattice.
//
// Every lattice edge advances exactly one event, so all predecessors of a
// cut holding k events lie in layer k-1, and the walk keeps only two layers
// alive. A layer is a flat arena of n words per cut, in lexicographic
// order, plus, per cut, the mask of automaton states that reach it. A layer
// expands one process at a time; advancing the same process in every cut
// keeps their order, so each process yields a sorted run of successors, and
// merging the runs sorts the next layer. Equal cuts, now adjacent, merge by
// OR-ing their masks. Each distinct cut is settled by stepping its incoming
// mask once on the cut's letter. The letter depends on the cut alone, so
// some incoming edge changes some reachable state (a pivot, Def. 17)
// exactly when some state of the merged mask changes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "decmon/lattice/oracle.hpp"

namespace decmon::detail {

/// `can_advance(cut, p)`: may `cut` take process p's next event?
template <typename CanAdvance>
OracleResult walk_cuts(const Computation& comp, const MonitorAutomaton& monitor,
                       std::size_t max_nodes, const CanAdvance& can_advance,
                       const std::string& who) {
  if (monitor.num_states() > 64) {
    throw std::invalid_argument(who + ": > 64 automaton states");
  }
  const std::size_t n = static_cast<std::size_t>(comp.num_processes());

  // The current layer; a mask holds the states entering its cut until the
  // cut is settled, and the states after its letter from then on.
  std::vector<std::uint32_t> cuts = comp.bottom();
  std::vector<std::uint64_t> masks{std::uint64_t{1}
                                   << monitor.initial_state()};
  std::vector<std::uint32_t> next_cuts;
  std::vector<std::uint64_t> next_masks;
  std::vector<std::size_t> order;  // next_cuts indexes, in cut order
  Computation::Cut cut(n);
  const auto cut_less = [&](std::size_t a, std::size_t b) {
    const std::uint32_t* x = next_cuts.data() + a * n;
    const std::uint32_t* y = next_cuts.data() + b * n;
    return std::lexicographical_compare(x, x + n, y, y + n);
  };

  OracleResult result;
  result.lattice_nodes = 1;
  for (;;) {
    for (std::size_t i = 0; i < masks.size(); ++i) {
      std::copy_n(cuts.data() + i * n, n, cut.begin());
      const AtomSet letter = comp.letter(cut);
      std::uint64_t settled = 0;
      bool pivot = false;
      for (int q = 0; q < monitor.num_states(); ++q) {
        if (!(masks[i] & (std::uint64_t{1} << q))) continue;
        auto t = monitor.step(q, letter);
        if (!t) throw std::logic_error(who + ": incomplete automaton");
        settled |= std::uint64_t{1} << *t;
        if (*t != q) pivot = true;
      }
      masks[i] = settled;
      if (pivot) ++result.pivot_states;
    }

    next_cuts.clear();
    next_masks.clear();
    order.clear();
    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t run = order.size();
      for (std::size_t i = 0; i < masks.size(); ++i) {
        std::copy_n(cuts.data() + i * n, n, cut.begin());
        if (!can_advance(cut, static_cast<int>(p))) continue;
        ++cut[p];
        order.push_back(next_masks.size());
        next_cuts.insert(next_cuts.end(), cut.begin(), cut.end());
        next_masks.push_back(masks[i]);
      }
      std::inplace_merge(order.begin(), order.begin() + run, order.end(),
                         cut_less);
    }
    if (next_masks.empty()) break;

    cuts.clear();
    masks.clear();
    for (std::size_t k : order) {
      const std::uint32_t* succ = next_cuts.data() + k * n;
      if (!masks.empty() && std::equal(succ, succ + n, cuts.end() - n)) {
        masks.back() |= next_masks[k];
        continue;
      }
      cuts.insert(cuts.end(), succ, succ + n);
      masks.push_back(next_masks[k]);
    }
    result.lattice_nodes += masks.size();
    if (result.lattice_nodes > max_nodes) {
      throw std::length_error(who + ": lattice too large");
    }
  }

  // The last layer holds the top cut alone unless the order wedges before
  // it: timestamps (or clocks) that contradict happened-before, possible in
  // hand-edited logs.
  if (masks.size() != 1 || cuts != comp.top()) {
    throw std::logic_error(
        who + ": top cut unreachable; timestamps or clocks contradict "
              "happened-before");
  }
  for (int q = 0; q < monitor.num_states(); ++q) {
    if (masks[0] & (std::uint64_t{1} << q)) {
      result.final_states.insert(q);
      result.verdicts.insert(monitor.verdict(q));
    }
  }
  return result;
}

}  // namespace decmon::detail
