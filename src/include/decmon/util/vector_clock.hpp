// Vector clocks for causal ordering of events in asynchronous distributed
// programs (Lamport / Mattern-Fidge clocks; Definitions 1-2 of the paper).
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <string>

#include "decmon/util/small_vec.hpp"

namespace decmon {

/// Causal relation between two vector clocks.
enum class Causality {
  kEqual,       ///< identical clocks
  kBefore,      ///< lhs happened-before rhs
  kAfter,       ///< rhs happened-before lhs
  kConcurrent,  ///< neither happened-before the other
};

/// A fixed-width vector clock over `n` processes.
///
/// Component `i` counts the events of process `i` known to the clock's owner.
/// Comparisons implement the happened-before partial order: `a < b` iff
/// `a[i] <= b[i]` for all `i` and `a != b`.
///
/// Storage is inline for up to kInlineComponents processes (the entire bench
/// grid), so clocks piggybacked on messages and copied into events, tokens
/// and views never allocate; wider systems spill to the heap transparently.
class VectorClock {
 public:
  static constexpr std::size_t kInlineComponents = 8;

  VectorClock() = default;
  explicit VectorClock(std::size_t n) : v_(n) {}
  VectorClock(std::initializer_list<std::uint32_t> init) : v_(init) {}

  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  std::uint32_t operator[](std::size_t i) const { return v_[i]; }
  std::uint32_t& operator[](std::size_t i) { return v_[i]; }
  std::uint32_t at(std::size_t i) const { return v_.at(i); }

  /// Increment component `i` (a new local event at process `i`).
  void tick(std::size_t i) { ++v_.at(i); }

  /// Component-wise maximum, in place (message receive).
  void merge(const VectorClock& other);

  /// Component-wise maximum, returning a new clock.
  static VectorClock max(const VectorClock& a, const VectorClock& b);

  /// Causal relation between `*this` and `other`. Requires equal sizes.
  Causality compare(const VectorClock& other) const;

  /// True iff `*this` happened-before `other` (strictly).
  bool happened_before(const VectorClock& other) const {
    return compare(other) == Causality::kBefore;
  }

  /// True iff the clocks are incomparable.
  bool concurrent_with(const VectorClock& other) const {
    return compare(other) == Causality::kConcurrent;
  }

  /// True iff `a[i] <= b[i]` for all components (reflexive causal order).
  bool leq(const VectorClock& other) const;

  /// Sum of all components (number of events covered by the clock).
  std::uint64_t total() const;

  bool operator==(const VectorClock& other) const { return v_ == other.v_; }
  bool operator!=(const VectorClock& other) const { return v_ != other.v_; }

  const SmallVec<std::uint32_t, kInlineComponents>& components() const {
    return v_;
  }

  /// Render as "[a, b, c]".
  std::string to_string() const;

 private:
  SmallVec<std::uint32_t, kInlineComponents> v_;
};

std::ostream& operator<<(std::ostream& os, const VectorClock& vc);

}  // namespace decmon
