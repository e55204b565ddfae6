// Real-thread runtime: one std::jthread per node (program process + its
// monitor replica), mailbox message passing with randomized latency and
// per-channel FIFO, wall-clock time. Exercises the same MonitorHooks /
// MonitorNetwork code path as the deterministic simulator, but with genuine
// asynchrony -- the closest in-process equivalent of the paper's network of
// iOS devices.
//
// Thread-safety contract: all callbacks for node i (its local events, its
// termination, messages addressed to it) are invoked from node i's thread
// only, so per-monitor state needs no locking. Shared mutable state is the
// mailboxes (each guarded by its own mutex) and each node's sender-side
// channel state (latency RNG + FIFO clamps, guarded by a per-node send
// mutex so off-node-thread sends are safe).
//
// Program pacing, credit-counted quiescence and failure propagation come
// from the run skeleton shared with SocketRuntime
// (src/distributed/run_core.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <variant>
#include <vector>

#include "decmon/distributed/process.hpp"
#include "decmon/distributed/runtime.hpp"
#include "decmon/distributed/trace.hpp"
#include "decmon/util/rng.hpp"

namespace decmon {

namespace detail {
class RunCore;
}

struct ThreadConfig {
  /// Wall-clock seconds per trace second (0.002 => a 3 s trace wait lasts
  /// 6 ms; keeps the experiments fast while preserving interleavings).
  /// 0 is legal: every wait and latency collapses to "now" (a zero-wait
  /// storm -- maximum scheduler pressure).
  double time_scale = 0.002;
  /// Message latency in *trace* seconds (scaled like waits).
  double latency_mu = 0.05;
  double latency_sigma = 0.02;
  std::uint64_t seed = 1;
};

class ThreadRuntime final : public MonitorNetwork {
 public:
  ThreadRuntime(SystemTrace trace, const AtomRegistry* registry,
                ThreadConfig config = {});
  ~ThreadRuntime() override;

  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;

  void set_hooks(MonitorHooks* hooks);

  /// Run to quiescence (blocking): all trace actions executed, all messages
  /// (application and monitor) delivered and processed. On return every
  /// node thread has been joined -- no callback can fire afterwards.
  /// Rethrows the first node-thread failure (e.g. a hook's MonitorOverflow).
  void run();

  // MonitorNetwork (safe from any thread; sender identity is msg.from):
  void send(MonitorMessage msg) override;
  void send_perturbed(MonitorMessage msg,
                      const DeliveryPerturbation& perturbation) override;
  double now() const override;

  int num_processes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<std::vector<Event>>& history() const;
  std::vector<LocalState> initial_states() const;
  std::uint64_t app_messages_sent() const;
  std::uint64_t monitor_messages_sent() const;
  std::uint64_t program_events() const;
  std::uint64_t monitor_messages_processed() const;

 private:
  using Clock = std::chrono::steady_clock;
  using Payload = std::variant<AppMessage, MonitorMessage>;

  struct Timed {
    Clock::time_point at;
    std::uint64_t seq;
    Payload payload;
    bool operator>(const Timed& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  struct Node {
    std::mutex mutex;
    std::condition_variable cv;
    std::priority_queue<Timed, std::vector<Timed>, std::greater<>> inbox;

    // Sender-side per-destination channel state: the FIFO clamps and the
    // latency RNG of this node *as a sender*. Guarded by send_mutex --
    // sends normally come from this node's own thread, but external
    // threads (tests, tools) may inject messages too.
    std::mutex send_mutex;
    std::vector<Clock::time_point> last_delivery;
    std::unique_ptr<NormalWait> latency;
  };

  void node_loop(int index);
  void deliver(int to, Clock::time_point at, Payload payload);
  /// Caller must hold nodes_[from]->send_mutex.
  Clock::time_point fifo_time(int from, int to, Clock::time_point candidate);

  ThreadConfig config_;
  std::unique_ptr<detail::RunCore> core_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::atomic<std::uint64_t> seq_{0};
};

}  // namespace decmon
