#include "decmon/distributed/thread_runtime.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "wall_time.hpp"

namespace decmon {

using detail::advance_saturated;
using detail::to_wall;

ThreadRuntime::ThreadRuntime(SystemTrace trace, const AtomRegistry* registry,
                             ThreadConfig config)
    : registry_(registry), config_(config), start_(Clock::now()) {
  const int n = trace.num_processes();
  history_.resize(static_cast<std::size_t>(n));
  nodes_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto node = std::make_unique<Node>();
    node->process = std::make_unique<ProgramProcess>(
        i, n, trace.procs[static_cast<std::size_t>(i)], registry_);
    node->expected_receives = trace.expected_receives(i);
    node->last_delivery.assign(static_cast<std::size_t>(n),
                               Clock::time_point{});
    node->latency = std::make_unique<NormalWait>(
        config_.latency_mu, config_.latency_sigma,
        derive_seed(config_.seed, 7000 + static_cast<std::uint64_t>(i)),
        /*min=*/0.0001);
    nodes_.push_back(std::move(node));
  }
}

ThreadRuntime::~ThreadRuntime() {
  stop_.store(true);
  for (auto& node : nodes_) {
    // Lock-then-notify so a node between its stop_ check and cv wait cannot
    // miss the wakeup.
    std::scoped_lock lock(node->mutex);
    node->cv.notify_all();
  }
  // jthread joins on destruction.
}

std::vector<LocalState> ThreadRuntime::initial_states() const {
  std::vector<LocalState> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(node->process->state());
  return out;
}

double ThreadRuntime::now() const {
  return std::chrono::duration<double>(
             Clock::now() - start_.load(std::memory_order_relaxed))
      .count();
}

ThreadRuntime::Clock::time_point ThreadRuntime::fifo_time(
    int from, int to, Clock::time_point candidate) {
  auto& last = nodes_[static_cast<std::size_t>(from)]
                   ->last_delivery[static_cast<std::size_t>(to)];
  const auto at = std::max(candidate, last + std::chrono::nanoseconds(1));
  last = at;
  return at;
}

void ThreadRuntime::deliver(int to, Clock::time_point at, Payload payload) {
  Node& node = *nodes_[static_cast<std::size_t>(to)];
  // Count the message before it becomes visible: the work unit exists from
  // this point until the receiver finished processing it (finish_one).
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::scoped_lock lock(node.mutex);
    node.inbox.push(
        Timed{at, seq_.fetch_add(1, std::memory_order_relaxed),
              std::move(payload)});
    node.cv.notify_all();
  }
}

void ThreadRuntime::finish_one() {
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Lock-then-notify: run() checks the counter under the mutex, so the
    // notification cannot slip between its check and its wait.
    std::scoped_lock lock(quiesce_mutex_);
    quiesce_cv_.notify_all();
  }
}

void ThreadRuntime::send(MonitorMessage msg) {
  send_perturbed(std::move(msg), DeliveryPerturbation{});
}

void ThreadRuntime::send_perturbed(MonitorMessage msg,
                                   const DeliveryPerturbation& perturbation) {
  if (msg.from < 0 || msg.from >= num_processes() || msg.to < 0 ||
      msg.to >= num_processes()) {
    throw std::out_of_range("ThreadRuntime::send: bad endpoint");
  }
  Clock::time_point at = Clock::now();
  if (msg.from != msg.to) {
    monitor_messages_.fetch_add(1, std::memory_order_relaxed);
    // Sender identity is msg.from, full stop: the latency stream and the
    // FIFO clamp key on the same node, and the per-node send mutex makes
    // this safe from any thread (monitor hooks run on the sender's thread,
    // but tests and tools may inject from outside).
    Node& sender = *nodes_[static_cast<std::size_t>(msg.from)];
    std::scoped_lock lock(sender.send_mutex);
    at = advance_saturated(
        at, to_wall(sender.latency->sample() + perturbation.extra_delay,
                    config_.time_scale));
    if (!perturbation.bypass_fifo) at = fifo_time(msg.from, msg.to, at);
  } else if (perturbation.extra_delay > 0.0) {
    // Delayed self-delivery: the reliable channel's retransmit timers (no
    // latency sample -- nothing crosses the network).
    at = advance_saturated(
        at, to_wall(perturbation.extra_delay, config_.time_scale));
  }
  deliver(msg.to, at, std::move(msg));
}

void ThreadRuntime::run() {
  start_.store(Clock::now(), std::memory_order_relaxed);
  stop_.store(false);
  // One work unit per program; externally injected pre-run messages are
  // already counted by deliver().
  outstanding_.fetch_add(num_processes(), std::memory_order_acq_rel);
  threads_.clear();
  threads_.reserve(static_cast<std::size_t>(num_processes()));
  for (int i = 0; i < num_processes(); ++i) {
    history_[static_cast<std::size_t>(i)].clear();
    history_[static_cast<std::size_t>(i)].push_back(
        nodes_[static_cast<std::size_t>(i)]->process->initial_event());
    threads_.emplace_back([this, i] { node_main(i); });
  }
  {
    std::unique_lock lock(quiesce_mutex_);
    quiesce_cv_.wait(lock, [&] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
  }
  stop_.store(true);
  for (auto& node : nodes_) {
    std::scoped_lock lock(node->mutex);
    node->cv.notify_all();
  }
  threads_.clear();  // join
}

void ThreadRuntime::node_main(int index) {
  Node& node = *nodes_[static_cast<std::size_t>(index)];
  ProgramProcess& proc = *node.process;
  auto& hist = history_[static_cast<std::size_t>(index)];
  const Clock::time_point run_start = start_.load(std::memory_order_relaxed);

  int receives_left = node.expected_receives;
  bool announced_termination = false;
  // Action times are derived from the *scheduled* time of the previous
  // action, not Clock::now() after it ran, so processing latency never
  // compounds into trace-time drift.
  Clock::time_point next_action =
      proc.has_next_action()
          ? advance_saturated(
                run_start, to_wall(proc.next_action_wait(), config_.time_scale))
          : Clock::time_point::max();

  auto record_event = [&](const Event& e) {
    program_events_.fetch_add(1, std::memory_order_relaxed);
    hist.push_back(e);
    if (hooks_) hooks_->on_local_event(index, e, now());
  };

  while (true) {
    // Wait until a message ripens, the next action is due, or stop. The
    // wake deadline is recomputed after every wakeup, so a newly queued
    // message with an earlier delivery time is never missed.
    std::optional<Payload> ready;
    bool action_due = false;
    {
      std::unique_lock lock(node.mutex);
      for (;;) {
        if (stop_.load(std::memory_order_acquire)) return;
        const auto wall = Clock::now();
        if (!node.inbox.empty() && node.inbox.top().at <= wall) {
          // Payloads are move-only (MonitorMessage owns its payload); move
          // out of the top slot, which pop() is about to discard anyway.
          ready = std::move(const_cast<Timed&>(node.inbox.top()).payload);
          node.inbox.pop();
          break;
        }
        if (proc.has_next_action() && wall >= next_action) {
          action_due = true;
          break;
        }
        const auto next_msg_at = node.inbox.empty()
                                     ? Clock::time_point::max()
                                     : node.inbox.top().at;
        const auto wake = std::min(next_action, next_msg_at);
        if (wake == Clock::time_point::max()) {
          node.cv.wait(lock);
        } else {
          node.cv.wait_until(lock, wake);
        }
      }
    }
    if (ready) {
      if (auto* app = std::get_if<AppMessage>(&*ready)) {
        const Event e = proc.receive(*app, now());
        --receives_left;
        record_event(e);
      } else {
        monitor_deliveries_.fetch_add(1, std::memory_order_relaxed);
        if (hooks_) {
          hooks_->on_monitor_message(std::move(std::get<MonitorMessage>(*ready)),
                                     now());
        }
      }
      // Release the message's work unit only after processing it -- any
      // sends the hook performed were counted first, so the outstanding
      // counter can never dip to zero mid-cascade.
      finish_one();
    } else if (action_due) {
      ProgramProcess::ActionResult result = proc.execute_next_action(now());
      record_event(result.event);
      if (result.is_comm) {
        std::scoped_lock lock(node.send_mutex);
        for (int to = 0; to < num_processes(); ++to) {
          if (to == index) continue;
          AppMessage msg = result.message;
          msg.to = to;
          app_messages_.fetch_add(1, std::memory_order_relaxed);
          auto at = advance_saturated(
              Clock::now(),
              to_wall(node.latency->sample(), config_.time_scale));
          deliver(to, fifo_time(index, to, at), std::move(msg));
        }
      }
      next_action =
          proc.has_next_action()
              ? advance_saturated(
                    next_action,
                    to_wall(proc.next_action_wait(), config_.time_scale))
              : Clock::time_point::max();
    }
    if (!announced_termination && !proc.has_next_action() &&
        receives_left == 0) {
      announced_termination = true;
      if (hooks_) hooks_->on_local_termination(index, now());
      // The program's work unit ends after its termination hook: sends made
      // by the hook are counted before this release.
      finish_one();
    }
  }
}

}  // namespace decmon
