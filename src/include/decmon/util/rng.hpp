// Deterministic random sources. All randomness in the library flows from
// explicit 64-bit seeds so that every experiment row is replayable.
#pragma once

#include <cstdint>
#include <random>

namespace decmon {

/// One SplitMix64 step: advance `state` and return the next output. For
/// streams whose state lives inside a larger object (a faulty link, a
/// channel's jitter source) and is checkpointed with it.
inline std::uint64_t splitmix64_next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// SplitMix64: tiny, high-quality seed expander. Used to derive independent
/// streams (per process, per replication) from one experiment seed.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() { return splitmix64_next(state_); }

 private:
  std::uint64_t state_;
};

/// Derive the `index`-th child seed of `seed` (independent streams).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  SplitMix64 sm(seed ^ (0xA5A5A5A5A5A5A5A5ull + index * 0x9E3779B97F4A7C15ull));
  sm.next();
  return sm.next();
}

/// Normal-distribution sampler truncated at a minimum value, matching the
/// paper's N(mu, sigma) wait times between events (which cannot be negative).
class NormalWait {
 public:
  NormalWait(double mean, double sigma, std::uint64_t seed, double min = 0.0)
      : engine_(seed), dist_(mean, sigma), min_(min) {}

  double sample() {
    double x = dist_(engine_);
    return x < min_ ? min_ : x;
  }

  double mean() const { return dist_.mean(); }
  double sigma() const { return dist_.stddev(); }

 private:
  std::mt19937_64 engine_;
  std::normal_distribution<double> dist_;
  double min_;
};

}  // namespace decmon
