#include "decmon/lattice/cut_walk.hpp"

#include <stdexcept>
#include <utility>

namespace decmon::detail {

CutWalk::CutWalk(const Computation& comp, const MonitorAutomaton& monitor,
                 std::size_t max_nodes, std::string who)
    : comp_(comp),
      monitor_(monitor),
      max_nodes_(max_nodes),
      who_(std::move(who)),
      n_(static_cast<std::size_t>(comp.num_processes())),
      cuts_(comp.bottom()),
      layer_max_(comp.bottom()),
      cut_(n_) {
  if (monitor.num_states() > 64) {
    throw std::invalid_argument(who_ + ": > 64 automaton states");
  }
  masks_.push_back(std::uint64_t{1} << monitor.initial_state());
  result_.lattice_nodes = 1;
}

std::uint64_t CutWalk::settle() {
  std::uint64_t reached = 0;
  for (std::size_t i = 0; i < masks_.size(); ++i) {
    std::copy_n(cuts_.data() + i * n_, n_, cut_.begin());
    const AtomSet letter = comp_.letter(cut_);
    std::uint64_t settled = 0;
    bool pivot = false;
    for (int q = 0; q < monitor_.num_states(); ++q) {
      if (!(masks_[i] & (std::uint64_t{1} << q))) continue;
      auto t = monitor_.step(q, letter);
      if (!t) throw std::logic_error(who_ + ": incomplete automaton");
      settled |= std::uint64_t{1} << *t;
      if (*t != q) pivot = true;
    }
    masks_[i] = settled;
    reached |= settled;
    if (pivot) ++result_.pivot_states;
  }
  return reached;
}

void CutWalk::take_next() {
  cuts_.clear();
  masks_.clear();
  std::fill(layer_max_.begin(), layer_max_.end(), 0);
  for (std::size_t k : order_) {
    const std::uint32_t* succ = next_cuts_.data() + k * n_;
    if (!masks_.empty() && std::equal(succ, succ + n_, cuts_.end() - n_)) {
      masks_.back() |= next_masks_[k];
      continue;
    }
    cuts_.insert(cuts_.end(), succ, succ + n_);
    masks_.push_back(next_masks_[k]);
    for (std::size_t p = 0; p < n_; ++p) {
      layer_max_[p] = std::max(layer_max_[p], succ[p]);
    }
  }
  peak_layer_cuts_ = std::max(peak_layer_cuts_, masks_.size());
  result_.lattice_nodes += masks_.size();
  if (result_.lattice_nodes > max_nodes_) {
    throw std::length_error(who_ + ": lattice too large");
  }
}

OracleResult CutWalk::result() const {
  if (!at_top()) {
    throw std::logic_error(
        who_ + ": top cut unreachable; timestamps or clocks contradict "
               "happened-before");
  }
  OracleResult out = result_;
  for (int q = 0; q < monitor_.num_states(); ++q) {
    if (masks_[0] & (std::uint64_t{1} << q)) {
      out.final_states.insert(q);
      out.verdicts.insert(monitor_.verdict(q));
    }
  }
  return out;
}

}  // namespace decmon::detail
