// The destination choice of SendToNextProcess (thesis §4.2.0.6), as a pure
// function of a token and the process holding it. MonitorProcess::route_token
// folds disabled entries and stages the send around it. Private to
// src/monitor.
#pragma once

#include <cstdint>

#include "decmon/monitor/token.hpp"

namespace decmon::detail {

/// Which rule of SendToNextProcess chose the destination.
enum class RouteRule : std::uint8_t {
  kEnabled,  ///< (1) an entry is enabled: back to the parent
  kStay,     ///< (2) a live entry targets this process: stay
  kThird,    ///< (3) a live entry targets a third process: go there
  kParent,   ///< (4) otherwise: back to the parent
};

struct Route {
  RouteRule rule;
  int dest;
  /// The earliest event that a live entry awaits at `dest`; 0 when none
  /// targets it.
  std::uint32_t target_event;
};

/// Rules 1-4 in order, for a token held by process `self`; the parent is
/// `token.parent`. Under rule 3 the token goes to the third process awaited
/// by the live entry with the lowest next_target_event, the first such entry
/// on a tie. Over the walk-golden grid this takes 16% fewer hops than
/// ranking the entries by their target state's distance to a verdict
/// (EXPERIMENTS.md round 21).
Route choose_route(const Token& token, int self);

}  // namespace decmon::detail
