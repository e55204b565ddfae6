// The run skeleton of the real-thread runtimes, ThreadRuntime and
// SocketRuntime: program pacing, credit-counted quiescence and failure
// propagation, written once. Each runtime keeps its transport -- how
// messages travel and how a node thread waits -- and drives its node loop
// through the program steps below. Private to src/distributed.
//
// Quiescence is counter-based: `outstanding_` counts running programs plus
// sent-but-unprocessed messages. A message is counted before it becomes
// visible anywhere and released only after its receiver processed it,
// including any sends that processing made, which were counted first. So
// outstanding_ == 0 proves no work exists or can ever be created. run()
// waits for that proof or for a node thread's failure, joins every node
// thread, and rethrows the first failure (a hook's MonitorOverflow, a
// transport error) instead of letting it reach std::terminate.
//
// Node i's program steps run on node i's thread only; history_[i] is read
// after run() has joined that thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "decmon/distributed/process.hpp"
#include "decmon/distributed/runtime.hpp"
#include "decmon/distributed/trace.hpp"
#include "wall_time.hpp"

namespace decmon::detail {

class RunCore {
 public:
  using Clock = std::chrono::steady_clock;

  RunCore(const SystemTrace& trace, const AtomRegistry* registry,
          double time_scale)
      : time_scale_(time_scale), start_(Clock::now()) {
    const int n = trace.num_processes();
    history_.resize(static_cast<std::size_t>(n));
    programs_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      programs_.push_back(Program{
          ProgramProcess(i, n, trace.procs[static_cast<std::size_t>(i)],
                         registry),
          trace.expected_receives(i)});
    }
  }
  // Node threads hold `this`.
  RunCore(const RunCore&) = delete;
  RunCore& operator=(const RunCore&) = delete;

  int num_processes() const { return static_cast<int>(programs_.size()); }
  void set_hooks(MonitorHooks* hooks) { hooks_ = hooks; }
  const std::vector<std::vector<Event>>& history() const { return history_; }
  std::vector<LocalState> initial_states() const {
    std::vector<LocalState> out;
    for (const Program& p : programs_) out.push_back(p.process.state());
    return out;
  }
  double now() const {
    return std::chrono::duration<double>(
               Clock::now() - start_.load(std::memory_order_relaxed))
        .count();
  }
  bool stopping() const { return stop_.load(std::memory_order_acquire); }

  /// Count `k` new work units, before the work becomes visible.
  void add_credits(std::int64_t k) {
    outstanding_.fetch_add(k, std::memory_order_acq_rel);
  }
  /// Release one unit of work; wakes run() at zero.
  void finish_one() {
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Lock-then-notify: run() checks the counter under the mutex, so the
      // notification cannot slip between its check and its wait.
      std::scoped_lock lock(quiesce_mutex_);
      quiesce_cv_.notify_all();
    }
  }

  // -- node i's program (node i's thread only) --
  /// Deadline of node i's next action; time_point::max() when none is left.
  Clock::time_point next_action(int i) const { return program(i).next_action; }
  /// Execute node i's due action and record its event; a communication
  /// action's message (result.is_comm) is the runtime's to send. The next
  /// deadline derives from this action's *scheduled* time, not
  /// Clock::now(), so processing latency never compounds into drift.
  ProgramProcess::ActionResult execute_action(int i) {
    Program& p = program(i);
    ProgramProcess::ActionResult result = p.process.execute_next_action(now());
    record_event(i, result.event);
    p.next_action = deadline_after(p, p.next_action);
    return result;
  }
  /// Apply an application message at node i, then release its credit.
  void apply_receive(int i, const AppMessage& msg) {
    Program& p = program(i);
    const Event e = p.process.receive(msg, now());
    --p.receives_left;
    record_event(i, e);
    finish_one();
  }
  /// Hand a monitor message to the hooks, then release its credit: the
  /// hook's own sends were counted first.
  void apply_monitor(MonitorMessage msg) {
    monitor_deliveries.fetch_add(1, std::memory_order_relaxed);
    if (hooks_) hooks_->on_monitor_message(std::move(msg), now());
    finish_one();
  }
  /// After node i's last action and last receive, announce termination
  /// once, then release the program's credit (after the hook's sends).
  void announce_if_done(int i) {
    Program& p = program(i);
    if (p.announced || p.process.has_next_action() || p.receives_left != 0) {
      return;
    }
    p.announced = true;
    if (hooks_) hooks_->on_local_termination(i, now());
    finish_one();
  }

  /// Run to quiescence: one credit per program (pre-run sends are already
  /// counted), each history seeded with its initial event, one thread per
  /// node running `node_loop(i)` until stopping(). Then stop, `wake_all()`
  /// so every node loop sees it, join, and rethrow the first failure.
  template <class NodeLoop, class WakeAll>
  void run(const NodeLoop& node_loop, const WakeAll& wake_all) {
    const Clock::time_point start = Clock::now();
    start_.store(start, std::memory_order_relaxed);
    stop_.store(false);
    failed_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    for (int i = 0; i < num_processes(); ++i) {
      Program& p = program(i);
      p.announced = false;
      p.next_action = deadline_after(p, start);
      history_[static_cast<std::size_t>(i)] = {p.process.initial_event()};
    }
    add_credits(num_processes());
    // Inside a catch handler: keep the first failure, stop every node, and
    // unblock the wait below (quiescence is unreachable now).
    auto fail = [&] {
      {
        std::scoped_lock lock(error_mutex_);
        if (!error_) error_ = std::current_exception();
      }
      failed_.store(true, std::memory_order_release);
      stop_.store(true, std::memory_order_release);
      wake_all();
      std::scoped_lock lock(quiesce_mutex_);
      quiesce_cv_.notify_all();
    };
    try {
      for (int i = 0; i < num_processes(); ++i) {
        threads_.emplace_back([&, i] {
          try {
            node_loop(i);
          } catch (...) {
            fail();
          }
        });
      }
    } catch (...) {
      fail();  // a thread did not start; join those that did
    }
    {
      std::unique_lock lock(quiesce_mutex_);
      quiesce_cv_.wait(lock, [&] {
        return outstanding_.load(std::memory_order_acquire) == 0 ||
               failed_.load(std::memory_order_acquire);
      });
    }
    stop_.store(true);
    wake_all();
    threads_.clear();  // join
    if (error_) {
      outstanding_.store(0, std::memory_order_release);
      std::rethrow_exception(std::exchange(error_, nullptr));
    }
  }

  // Counters both runtimes report (stable after run() returns).
  std::atomic<std::uint64_t> program_events{0};
  std::atomic<std::uint64_t> app_messages{0};
  std::atomic<std::uint64_t> monitor_sends{0};  ///< cross-node send() calls
  std::atomic<std::uint64_t> monitor_deliveries{0};

 private:
  /// Cache-line aligned: each is written by its own node thread.
  struct alignas(64) Program {
    ProgramProcess process;
    int receives_left = 0;
    bool announced = false;
    Clock::time_point next_action = Clock::time_point::max();
  };

  Program& program(int i) { return programs_[static_cast<std::size_t>(i)]; }
  const Program& program(int i) const {
    return programs_[static_cast<std::size_t>(i)];
  }
  Clock::time_point deadline_after(const Program& p,
                                   Clock::time_point scheduled) const {
    if (!p.process.has_next_action()) return Clock::time_point::max();
    return advance_saturated(
        scheduled, to_wall(p.process.next_action_wait(), time_scale_));
  }
  void record_event(int i, const Event& e) {
    program_events.fetch_add(1, std::memory_order_relaxed);
    history_[static_cast<std::size_t>(i)].push_back(e);
    if (hooks_) hooks_->on_local_event(i, e, now());
  }

  double time_scale_;
  MonitorHooks* hooks_ = nullptr;
  std::vector<Program> programs_;
  std::vector<std::vector<Event>> history_;

  std::atomic<Clock::time_point> start_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::atomic<std::int64_t> outstanding_{0};  ///< see file comment
  std::mutex quiesce_mutex_;
  std::condition_variable quiesce_cv_;
  std::mutex error_mutex_;  ///< guards error_ while node threads run
  std::exception_ptr error_;
  std::vector<std::jthread> threads_;  ///< last: the threads use the above
};

}  // namespace decmon::detail
