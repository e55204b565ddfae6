// Trace time -> wall time for the real runtimes (ThreadRuntime and
// SocketRuntime): a trace's seconds, scaled by the runtime's time_scale,
// become steady_clock deadlines without overflow. Private to
// src/distributed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

namespace decmon::detail {

/// Saturation bound for trace-time -> wall-time conversion: far beyond any
/// real run (~73 years) yet small enough that adding it to a steady_clock
/// reading can never overflow the time_point representation.
inline constexpr std::chrono::nanoseconds kMaxWall{
    std::numeric_limits<std::int64_t>::max() / 4};

inline std::chrono::nanoseconds to_wall(double trace_seconds, double scale) {
  const double wall_ns = std::max(0.0, trace_seconds * scale) * 1e9;
  // Saturate instead of casting out of range (the cast would be UB); the
  // negated comparison also routes NaN to the saturated value.
  if (!(wall_ns < static_cast<double>(kMaxWall.count()))) return kMaxWall;
  return std::chrono::nanoseconds(static_cast<std::int64_t>(wall_ns));
}

/// tp + d without overflow: saturates to time_point::max().
inline std::chrono::steady_clock::time_point advance_saturated(
    std::chrono::steady_clock::time_point tp, std::chrono::nanoseconds d) {
  using TP = std::chrono::steady_clock::time_point;
  if (tp >= TP::max() - d) return TP::max();
  return tp + std::chrono::duration_cast<TP::duration>(d);
}

}  // namespace decmon::detail
