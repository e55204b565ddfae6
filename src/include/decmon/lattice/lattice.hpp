// Explicit computation lattice (Def. 6, Fig. 2.2b): the DAG of all
// consistent cuts ordered by single-event advances. Exponential in general;
// only materialized for tests, small examples and the centralized baseline.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "decmon/lattice/computation.hpp"

namespace decmon {

class Lattice {
 public:
  struct Node {
    Computation::Cut cut;
    /// Successor node per advancing process (-1 when not advanceable).
    std::vector<int> succ;
  };

  /// Build the full lattice. Throws std::length_error past `max_nodes`.
  static Lattice build(const Computation& comp, std::size_t max_nodes = 1u << 20);

  const std::vector<Node>& nodes() const { return nodes_; }
  int bottom() const { return bottom_; }
  int top() const { return top_; }
  std::size_t size() const { return nodes_.size(); }

  /// Number of maximal paths bottom -> top, as a double (can be astronomically
  /// large; exact for small lattices).
  double num_paths() const;

  /// Index of the node with this cut, or -1.
  int find(const Computation::Cut& cut) const;

 private:
  std::vector<Node> nodes_;
  std::unordered_map<Computation::Cut, int, CutHash> index_;
  int bottom_ = -1;
  int top_ = -1;
};

}  // namespace decmon
