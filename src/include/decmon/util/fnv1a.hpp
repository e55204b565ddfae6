// FNV-1a over 64-bit words: the one mixer behind hash-map keys on cuts and
// the monitor's probe signatures, spawn memo and merge keys. Probe
// signatures and the spawn memo are stored in checkpoints, so the values
// are part of the checkpoint format and must not change. The prime is the
// published FNV 64-bit prime; the offset basis is the published
// 14695981039346656037 with its last digit dropped, kept so that stored
// values still match.
#pragma once

#include <cstdint>

namespace decmon {

class Fnv1a {
 public:
  void mix(std::uint64_t x) {
    h_ ^= x;
    h_ *= 1099511628211ull;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace decmon
