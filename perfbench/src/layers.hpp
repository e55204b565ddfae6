// Per-layer timing measured from outside the library: decorators over the
// public MonitorHooks and MonitorNetwork interfaces, stacked between a
// runtime and a DecentralizedMonitor the same way FaultyNetwork and
// CrashInjector are. Every call that crosses either interface is counted
// and timed with std::chrono::steady_clock.
//
//   runtime --hooks--> TimedHooks --> DecentralizedMonitor
//   DecentralizedMonitor --net--> TimedNetwork --> runtime
//
// A monitor sends only while one of its hooks is on the stack, so the time
// of a hook minus the sends nested inside it is the monitor layer's self
// time, and the sends are the runtime's send path (scheduler insert under
// SimRuntime; encode, enqueue and write under SocketRuntime).
//
// Spans are read from a wall clock, or from the calling thread's CPU clock
// where several node threads share one CPU (a wall-clock span would also
// count the peer threads that preempted it).
//
// Accumulators are kept per node. Every runtime in the library delivers a
// node's callbacks on one thread (SocketRuntime: that node's thread), and a
// monitor sends from its own callbacks, so each slot has a single writer and
// needs no lock; the slots are read after run() has joined the threads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "decmon/distributed/runtime.hpp"

namespace perfbench {

struct LayerCounters {
  /// on_monitor_message: token walks, returns, termination and floors.
  std::uint64_t token_calls = 0;
  std::uint64_t token_ns = 0;       ///< inclusive of nested sends
  std::uint64_t token_send_ns = 0;  ///< sends nested inside token calls
  /// on_local_event and on_local_termination.
  std::uint64_t event_calls = 0;
  std::uint64_t event_ns = 0;
  std::uint64_t event_send_ns = 0;
  /// MonitorNetwork::send / send_perturbed.
  std::uint64_t send_calls = 0;    ///< frames (or single payloads) handed over
  std::uint64_t send_units = 0;    ///< payload units inside them
  std::uint64_t send_ns = 0;
  std::uint64_t send_outside_hooks = 0;  ///< sends with no hook on the stack

  LayerCounters& operator+=(const LayerCounters& other);
  std::uint64_t hook_ns() const { return token_ns + event_ns; }
  std::uint64_t token_self_ns() const { return token_ns - token_send_ns; }
  std::uint64_t event_self_ns() const { return event_ns - event_send_ns; }
};

enum class TimeBase { kWall, kThreadCpu };

/// The accumulators of one monitored run, one cache-line-aligned slot per
/// node so node threads never share a line.
class LayerClock {
 public:
  LayerClock(int num_nodes, TimeBase base);
  std::uint64_t now_ns() const;
  LayerCounters& slot(int node);
  LayerCounters total() const;
  /// Zero every slot: monitors probe their initial state (and send) while
  /// they are constructed, before the runtime's run() is timed.
  void reset();

 private:
  struct alignas(64) Slot {
    LayerCounters counters;
  };
  TimeBase base_;
  std::vector<Slot> slots_;
};

class TimedHooks final : public decmon::MonitorHooks {
 public:
  /// `inner` and `clock` must outlive the decorator.
  TimedHooks(decmon::MonitorHooks* inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}

  void on_local_event(int proc, const decmon::Event& event,
                      double now) override;
  void on_local_termination(int proc, double now) override;
  void on_monitor_message(decmon::MonitorMessage msg, double now) override;

 private:
  decmon::MonitorHooks* inner_;
  LayerClock* clock_;
};

class TimedNetwork final : public decmon::MonitorNetwork {
 public:
  /// `inner` and `clock` must outlive the decorator.
  TimedNetwork(decmon::MonitorNetwork* inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}

  void send(decmon::MonitorMessage msg) override;
  void send_perturbed(decmon::MonitorMessage msg,
                      const decmon::DeliveryPerturbation& perturbation) override;
  double now() const override { return inner_->now(); }

 private:
  decmon::MonitorNetwork* inner_;
  LayerClock* clock_;
};

}  // namespace perfbench
