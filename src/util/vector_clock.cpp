#include "decmon/util/vector_clock.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <ostream>
#include <sstream>

namespace decmon {

void VectorClock::merge(const VectorClock& other) {
  assert(v_.size() == other.v_.size());
  std::uint32_t* a = v_.data();
  const std::uint32_t* b = other.v_.data();
  for (std::size_t i = 0; i < v_.size(); ++i) {
    a[i] = std::max(a[i], b[i]);
  }
}

VectorClock VectorClock::max(const VectorClock& a, const VectorClock& b) {
  VectorClock out = a;
  out.merge(b);
  return out;
}

Causality VectorClock::compare(const VectorClock& other) const {
  assert(v_.size() == other.v_.size());
  bool less = false;   // some component strictly smaller
  bool greater = false;
  for (std::size_t i = 0; i < v_.size(); ++i) {
    if (v_[i] < other.v_[i]) less = true;
    if (v_[i] > other.v_[i]) greater = true;
  }
  if (less && greater) return Causality::kConcurrent;
  if (less) return Causality::kBefore;
  if (greater) return Causality::kAfter;
  return Causality::kEqual;
}

bool VectorClock::leq(const VectorClock& other) const {
  assert(v_.size() == other.v_.size());
  for (std::size_t i = 0; i < v_.size(); ++i) {
    if (v_[i] > other.v_[i]) return false;
  }
  return true;
}

std::uint64_t VectorClock::total() const {
  return std::accumulate(v_.begin(), v_.end(), std::uint64_t{0});
}

std::string VectorClock::to_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < v_.size(); ++i) {
    if (i) os << ", ";
    os << v_[i];
  }
  os << ']';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const VectorClock& vc) {
  return os << vc.to_string();
}

}  // namespace decmon
