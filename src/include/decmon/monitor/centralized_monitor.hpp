// Centralized baseline (§1.2.2, §6.2.3.1): every process forwards each of
// its events to one central monitor node, which runs the oracle's layered
// cut walk (decmon/lattice/cut_walk.hpp) online and tracks the set of
// reachable automaton states.
//
// Sound and complete by construction (it is the oracle's DP), but: every
// event crosses the network, the central node holds a layer of the
// exponential lattice at a time, a verdict waits for the slowest process,
// and the node is a single point of failure -- the trade-offs Table 6.1
// lists. Used as the comparison baseline in benches and as an independent
// checker.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "decmon/distributed/event.hpp"
#include "decmon/distributed/message.hpp"
#include "decmon/distributed/runtime.hpp"
#include "decmon/lattice/computation.hpp"
#include "decmon/lattice/cut_walk.hpp"
#include "decmon/monitor/predicate.hpp"

namespace decmon {

/// Payload forwarding one program event to the central node.
struct EventForwardMessage final : NetPayload {
  static constexpr std::uint8_t kTag = 3;
  EventForwardMessage() : NetPayload(kTag) {}
  Event event;
};

/// Payload announcing a process's termination to the central node.
struct CentralTerminationMessage final : NetPayload {
  static constexpr std::uint8_t kTag = 4;
  CentralTerminationMessage() : NetPayload(kTag) {}
  int process = -1;
};

class CentralizedMonitor final : public MonitorHooks {
 public:
  /// Holds the property handle (and so its owning artifact) for the
  /// monitor's lifetime.
  CentralizedMonitor(std::shared_ptr<const CompiledProperty> property,
                     MonitorNetwork* network,
                     std::vector<AtomSet> initial_letters,
                     int central_node = 0,
                     std::size_t max_cuts = kOracleMaxNodes);
  // walk_ refers to comp_, so a copy would walk the original's events.
  CentralizedMonitor(const CentralizedMonitor&) = delete;
  CentralizedMonitor& operator=(const CentralizedMonitor&) = delete;

  // MonitorHooks:
  void on_local_event(int proc, const Event& event, double now) override;
  void on_local_termination(int proc, double now) override;
  void on_monitor_message(MonitorMessage msg, double now) override;

  /// Verdict labels of the states at the top cut of the events received so
  /// far, once the walk has reached it, plus verdicts declared earlier.
  std::set<Verdict> verdicts() const;

  /// Automaton states reachable at the top cut (valid once finished()).
  std::set<int> final_states() const;

  bool finished() const {
    return std::find(terminated_.begin(), terminated_.end(), false) ==
           terminated_.end();
  }
  std::uint64_t forwarded_messages() const { return forwarded_; }
  /// Consistent cuts walked so far: work, the lattice size once finished.
  std::uint64_t explored_cuts() const { return walk_.lattice_nodes(); }
  /// The widest layer walked: the central node holds one layer, plus its
  /// successors, at a time.
  std::size_t peak_layer_cuts() const { return walk_.peak_layer_cuts(); }

 private:
  /// Advances the walk while every running process has delivered an event
  /// past the largest word the current layer holds for it.
  void pump();
  /// Settles the walk's current layer and declares the definite verdicts
  /// it reaches (they are absorbing, so they hold at the top too).
  void settle();

  std::shared_ptr<const CompiledProperty> prop_;
  MonitorNetwork* net_;
  int central_;

  /// The events received so far (sequence 0 = initial pseudo-event).
  Computation comp_;
  std::vector<bool> terminated_;
  detail::CutWalk walk_;

  std::set<Verdict> declared_;
  std::uint64_t forwarded_ = 0;
};

}  // namespace decmon
