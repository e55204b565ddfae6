#include "decmon/distributed/thread_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "run_core.hpp"
#include "wall_time.hpp"

namespace decmon {

using detail::advance_saturated;
using detail::to_wall;

ThreadRuntime::ThreadRuntime(SystemTrace trace, const AtomRegistry* registry,
                             ThreadConfig config)
    : config_(config),
      core_(std::make_unique<detail::RunCore>(trace, registry,
                                              config.time_scale)) {
  const int n = trace.num_processes();
  nodes_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto node = std::make_unique<Node>();
    node->last_delivery.assign(static_cast<std::size_t>(n),
                               Clock::time_point{});
    node->latency = std::make_unique<NormalWait>(
        config_.latency_mu, config_.latency_sigma,
        derive_seed(config_.seed, 7000 + static_cast<std::uint64_t>(i)),
        /*min=*/0.0001);
    nodes_.push_back(std::move(node));
  }
}

// run() joins every node thread before it returns or throws.
ThreadRuntime::~ThreadRuntime() = default;

void ThreadRuntime::set_hooks(MonitorHooks* hooks) { core_->set_hooks(hooks); }

const std::vector<std::vector<Event>>& ThreadRuntime::history() const {
  return core_->history();
}

std::vector<LocalState> ThreadRuntime::initial_states() const {
  return core_->initial_states();
}

double ThreadRuntime::now() const { return core_->now(); }

std::uint64_t ThreadRuntime::app_messages_sent() const {
  return core_->app_messages;
}
std::uint64_t ThreadRuntime::monitor_messages_sent() const {
  return core_->monitor_sends;
}
std::uint64_t ThreadRuntime::program_events() const {
  return core_->program_events;
}
std::uint64_t ThreadRuntime::monitor_messages_processed() const {
  return core_->monitor_deliveries;
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
  core_->add_credits(1);
  {
    std::scoped_lock lock(node.mutex);
    node.inbox.push(
        Timed{at, seq_.fetch_add(1, std::memory_order_relaxed),
              std::move(payload)});
    node.cv.notify_all();
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
    core_->monitor_sends.fetch_add(1, std::memory_order_relaxed);
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
  core_->run([this](int i) { node_loop(i); },
             [this] {
               // Lock-then-notify so a node between its stop check and its
               // cv wait cannot miss the wakeup.
               for (auto& node : nodes_) {
                 std::scoped_lock lock(node->mutex);
                 node->cv.notify_all();
               }
             });
}

void ThreadRuntime::node_loop(int index) {
  Node& node = *nodes_[static_cast<std::size_t>(index)];
  detail::RunCore& core = *core_;
  while (true) {
    // Wait until a message ripens, the next action is due, or stop. The
    // wake deadline is recomputed after every wakeup, so a newly queued
    // message with an earlier delivery time is never missed.
    std::optional<Payload> ready;
    bool action_due = false;
    {
      std::unique_lock lock(node.mutex);
      for (;;) {
        if (core.stopping()) return;
        const auto wall = Clock::now();
        if (!node.inbox.empty() && node.inbox.top().at <= wall) {
          // Payloads are move-only (MonitorMessage owns its payload); move
          // out of the top slot, which pop() is about to discard anyway.
          ready = std::move(const_cast<Timed&>(node.inbox.top()).payload);
          node.inbox.pop();
          break;
        }
        if (wall >= core.next_action(index)) {
          action_due = true;
          break;
        }
        const auto next_msg_at = node.inbox.empty()
                                     ? Clock::time_point::max()
                                     : node.inbox.top().at;
        const auto wake = std::min(core.next_action(index), next_msg_at);
        if (wake == Clock::time_point::max()) {
          node.cv.wait(lock);
        } else {
          node.cv.wait_until(lock, wake);
        }
      }
    }
    if (ready) {
      if (auto* app = std::get_if<AppMessage>(&*ready)) {
        core.apply_receive(index, *app);
      } else {
        core.apply_monitor(std::move(std::get<MonitorMessage>(*ready)));
      }
    } else if (action_due) {
      const ProgramProcess::ActionResult result = core.execute_action(index);
      if (result.is_comm) {
        std::scoped_lock lock(node.send_mutex);
        for (int to = 0; to < num_processes(); ++to) {
          if (to == index) continue;
          AppMessage msg = result.message;
          msg.to = to;
          core.app_messages.fetch_add(1, std::memory_order_relaxed);
          auto at = advance_saturated(
              Clock::now(),
              to_wall(node.latency->sample(), config_.time_scale));
          deliver(to, fifo_time(index, to, at), std::move(msg));
        }
      }
    }
    core.announce_if_done(index);
  }
}

}  // namespace decmon
