#include "layers.hpp"

#include <time.h>

#include <chrono>
#include <utility>

namespace perfbench {

namespace {

/// Where this thread's nested send time goes: the open hook's accumulator,
/// or null when no hook is on this thread's stack.
thread_local std::uint64_t* tl_nested_send_ns = nullptr;

/// Times one hook call and collects the sends nested inside it. Runtimes
/// never call a hook from inside another, so spans do not nest.
class HookSpan {
 public:
  HookSpan(const LayerClock& clock, std::uint64_t* calls, std::uint64_t* ns,
           std::uint64_t* send_ns)
      : clock_(clock), ns_(ns), send_ns_(send_ns), start_(clock.now_ns()) {
    ++*calls;
    tl_nested_send_ns = &nested_;
  }
  ~HookSpan() {
    *ns_ += clock_.now_ns() - start_;
    *send_ns_ += nested_;
    tl_nested_send_ns = nullptr;
  }
  HookSpan(const HookSpan&) = delete;
  HookSpan& operator=(const HookSpan&) = delete;

 private:
  const LayerClock& clock_;
  std::uint64_t* ns_;
  std::uint64_t* send_ns_;
  std::uint64_t start_;
  std::uint64_t nested_ = 0;
};

std::uint64_t units_of(const decmon::MonitorMessage& msg) {
  if (msg.payload && msg.payload->tag == decmon::PayloadFrame::kTag) {
    return static_cast<const decmon::PayloadFrame&>(*msg.payload).units.size();
  }
  return 1;
}

template <typename Send>
void timed_send(LayerClock* clock, const decmon::MonitorMessage& msg,
                Send&& send) {
  LayerCounters& c = clock->slot(msg.from);
  ++c.send_calls;
  c.send_units += units_of(msg);
  const std::uint64_t t0 = clock->now_ns();
  send();
  const std::uint64_t dt = clock->now_ns() - t0;
  c.send_ns += dt;
  if (tl_nested_send_ns) {
    *tl_nested_send_ns += dt;
  } else {
    ++c.send_outside_hooks;
  }
}

}  // namespace

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  token_calls += o.token_calls;
  token_ns += o.token_ns;
  token_send_ns += o.token_send_ns;
  event_calls += o.event_calls;
  event_ns += o.event_ns;
  event_send_ns += o.event_send_ns;
  send_calls += o.send_calls;
  send_units += o.send_units;
  send_ns += o.send_ns;
  send_outside_hooks += o.send_outside_hooks;
  return *this;
}

LayerClock::LayerClock(int num_nodes, TimeBase base)
    : base_(base), slots_(static_cast<std::size_t>(num_nodes)) {}

std::uint64_t LayerClock::now_ns() const {
  if (base_ == TimeBase::kWall) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

LayerCounters& LayerClock::slot(int node) {
  return slots_.at(static_cast<std::size_t>(node)).counters;
}

void LayerClock::reset() {
  for (Slot& s : slots_) s.counters = LayerCounters{};
}

LayerCounters LayerClock::total() const {
  LayerCounters sum;
  for (const Slot& s : slots_) sum += s.counters;
  return sum;
}

void TimedHooks::on_local_event(int proc, const decmon::Event& event,
                                double now) {
  LayerCounters& c = clock_->slot(proc);
  HookSpan span(*clock_, &c.event_calls, &c.event_ns, &c.event_send_ns);
  inner_->on_local_event(proc, event, now);
}

void TimedHooks::on_local_termination(int proc, double now) {
  LayerCounters& c = clock_->slot(proc);
  HookSpan span(*clock_, &c.event_calls, &c.event_ns, &c.event_send_ns);
  inner_->on_local_termination(proc, now);
}

void TimedHooks::on_monitor_message(decmon::MonitorMessage msg, double now) {
  LayerCounters& c = clock_->slot(msg.to);
  HookSpan span(*clock_, &c.token_calls, &c.token_ns, &c.token_send_ns);
  inner_->on_monitor_message(std::move(msg), now);
}

void TimedNetwork::send(decmon::MonitorMessage msg) {
  timed_send(clock_, msg, [&] { inner_->send(std::move(msg)); });
}

void TimedNetwork::send_perturbed(
    decmon::MonitorMessage msg,
    const decmon::DeliveryPerturbation& perturbation) {
  timed_send(clock_, msg,
             [&] { inner_->send_perturbed(std::move(msg), perturbation); });
}

}  // namespace perfbench
