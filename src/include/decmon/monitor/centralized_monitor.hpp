// Centralized baseline (§1.2.2, §6.2.3.1): every process forwards each of
// its events to one central monitor node, which incrementally explores the
// computation lattice and tracks the set of reachable automaton states.
//
// Sound and complete by construction (it performs the oracle's DP online),
// but: every event crosses the network, the central node carries the whole
// exponential lattice, and it is a single point of failure -- exactly the
// trade-offs Table 6.1 lists. Used as the comparison baseline in benches
// and as an independent checker in tests.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "decmon/distributed/event.hpp"
#include "decmon/distributed/message.hpp"
#include "decmon/distributed/runtime.hpp"
#include "decmon/lattice/computation.hpp"
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
  std::uint32_t last_sn = 0;
};

class CentralizedMonitor final : public MonitorHooks {
 public:
  /// Holds the property handle (and so its owning artifact) for the
  /// monitor's lifetime.
  CentralizedMonitor(std::shared_ptr<const CompiledProperty> property,
                     MonitorNetwork* network,
                     std::vector<AtomSet> initial_letters,
                     int central_node = 0,
                     std::size_t max_cuts = std::size_t{1} << 20);

  // MonitorHooks:
  void on_local_event(int proc, const Event& event, double now) override;
  void on_local_termination(int proc, double now) override;
  void on_monitor_message(MonitorMessage msg, double now) override;

  /// Verdict labels of automaton states reachable at the most advanced cut
  /// explored (the top cut once finished), plus verdicts declared earlier.
  std::set<Verdict> verdicts() const;

  /// Automaton states reachable at the top cut (valid once finished()).
  std::set<int> final_states() const;

  bool finished() const { return finished_; }
  std::uint64_t forwarded_messages() const { return forwarded_; }
  std::uint64_t explored_cuts() const { return cuts_.size(); }
  double finish_time() const { return finish_time_; }

 private:
  using Cut = Computation::Cut;

  void central_ingest(const Event& event, double now);
  void central_termination(int proc, std::uint32_t last_sn, double now);
  /// Try to advance `cut` along every process; newly created or updated
  /// cuts are pushed onto the work queue.
  void expand(const Cut& cut, double now);
  void pump(double now);
  void check_finished(double now);
  AtomSet letter_at(const Cut& cut) const;

  std::shared_ptr<const CompiledProperty> prop_;
  MonitorNetwork* net_;
  int central_;
  std::size_t max_cuts_;

  /// Per-process events received so far (index 0 = initial pseudo-event).
  std::vector<std::vector<Event>> events_;
  std::vector<std::uint32_t> last_sn_;  ///< announced last event or kRunning
  /// Reachable automaton-state mask per consistent cut.
  std::unordered_map<Cut, std::uint64_t, CutHash> cuts_;
  /// Cuts whose expansion stalled waiting for event (proc, sn).
  std::map<std::pair<int, std::uint32_t>, std::vector<Cut>> blocked_;
  std::vector<Cut> work_;

  std::set<Verdict> declared_;
  std::uint64_t forwarded_ = 0;
  bool finished_ = false;
  double finish_time_ = 0.0;
};

}  // namespace decmon
