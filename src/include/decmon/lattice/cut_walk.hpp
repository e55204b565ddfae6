// The one walk over consistent cuts (Chapter 3). The oracles run it to the
// top under happened-before or its clock-skew refinement (they differ only
// in `can_advance`); the centralized monitor runs it online.
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
#include <string>
#include <vector>

#include "decmon/lattice/oracle.hpp"

namespace decmon::detail {

class CutWalk {
 public:
  /// Starts at the bottom cut, unsettled. Both references must outlive the
  /// walk; `comp` may grow (Computation::append) between steps.
  CutWalk(const Computation& comp, const MonitorAutomaton& monitor,
          std::size_t max_nodes, std::string who);

  /// Steps every cut of the current layer on its letter, once per layer;
  /// returns the union of the states reached.
  std::uint64_t settle();

  /// Builds the next layer from the settled current one; `can_advance(cut,
  /// p)` says whether `cut` may take process p's next event. Returns false,
  /// keeping the current layer, when no cut can advance. Throws
  /// std::length_error once more than `max_nodes` cuts have been visited.
  template <typename CanAdvance>
  bool advance(const CanAdvance& can_advance);

  /// Per process, the largest word of any cut in the current layer.
  const Computation::Cut& layer_max() const { return layer_max_; }

  /// Is the current layer the computation's top cut alone?
  bool at_top() const { return masks_.size() == 1 && cuts_ == comp_.top(); }

  std::size_t peak_layer_cuts() const { return peak_layer_cuts_; }
  std::uint64_t lattice_nodes() const { return result_.lattice_nodes; }

  /// The verdicts at the settled top cut; throws std::logic_error when the
  /// walk stopped below it (timestamps or clocks contradicting
  /// happened-before, possible in hand-edited logs).
  OracleResult result() const;

 private:
  /// Replaces the current layer by the merged successor runs.
  void take_next();

  const Computation& comp_;
  const MonitorAutomaton& monitor_;
  std::size_t max_nodes_;
  std::string who_;
  std::size_t n_;

  // The current layer; a mask holds the states entering its cut until the
  // cut is settled, and the states after its letter from then on.
  std::vector<std::uint32_t> cuts_;
  std::vector<std::uint64_t> masks_;
  Computation::Cut layer_max_;
  std::vector<std::uint32_t> next_cuts_;
  std::vector<std::uint64_t> next_masks_;
  std::vector<std::size_t> order_;  // next_cuts_ indexes, in cut order
  Computation::Cut cut_;
  std::size_t peak_layer_cuts_ = 1;
  OracleResult result_;  // counters only; result() fills in the states
};

template <typename CanAdvance>
bool CutWalk::advance(const CanAdvance& can_advance) {
  const auto cut_less = [this](std::size_t a, std::size_t b) {
    const std::uint32_t* x = next_cuts_.data() + a * n_;
    const std::uint32_t* y = next_cuts_.data() + b * n_;
    return std::lexicographical_compare(x, x + n_, y, y + n_);
  };
  next_cuts_.clear();
  next_masks_.clear();
  order_.clear();
  for (std::size_t p = 0; p < n_; ++p) {
    const std::size_t run = order_.size();
    for (std::size_t i = 0; i < masks_.size(); ++i) {
      std::copy_n(cuts_.data() + i * n_, n_, cut_.begin());
      if (!can_advance(cut_, static_cast<int>(p))) continue;
      ++cut_[p];
      order_.push_back(next_masks_.size());
      next_cuts_.insert(next_cuts_.end(), cut_.begin(), cut_.end());
      next_masks_.push_back(masks_[i]);
    }
    std::inplace_merge(order_.begin(), order_.begin() + run, order_.end(),
                       cut_less);
  }
  if (next_masks_.empty()) return false;
  take_next();
  return true;
}

}  // namespace decmon::detail
