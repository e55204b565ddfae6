#include "decmon/monitor/decentralized_monitor.hpp"

#include <atomic>
#include <stdexcept>

namespace decmon {
namespace {

/// slot := min(slot, now), where a negative slot means "no verdict yet".
/// Node threads of the real runtimes declare verdicts concurrently, so the
/// update is a CAS loop; a failed exchange reloads `cur` and re-checks.
void record_first(std::atomic<double>& slot, double now) {
  double cur = slot.load();
  while ((cur < 0 || now < cur) && !slot.compare_exchange_weak(cur, now)) {
  }
}

}  // namespace

DecentralizedMonitor::DecentralizedMonitor(
    std::shared_ptr<const CompiledProperty> property, MonitorNetwork* network,
    std::vector<AtomSet> initial_letters, MonitorOptions options) {
  const int n = property->num_processes();
  monitors_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Replicas share the one property (and, through the aliasing
    // shared_ptr, its owning artifact); nothing per-replica is copied.
    monitors_.push_back(std::make_unique<MonitorProcess>(
        i, property, network, initial_letters, options));
    monitors_.back()->set_verdict_callback([this](Verdict v, double now) {
      if (v == Verdict::kFalse) record_first(first_violation_, now);
      if (v == Verdict::kTrue) record_first(first_satisfaction_, now);
    });
  }
}

void DecentralizedMonitor::on_local_event(int proc, const Event& event,
                                          double now) {
  monitor(proc).on_local_event(event, now);
}

void DecentralizedMonitor::on_local_termination(int proc, double now) {
  monitor(proc).on_local_termination(now);
}

void DecentralizedMonitor::on_monitor_message(MonitorMessage msg, double now) {
  // Monitors send only frames (flush_staged), and every transport delivers
  // them as frames; MonitorProcess::on_frame dispatches the units.
  if (msg.payload == nullptr || msg.payload->tag != PayloadFrame::kTag) {
    throw std::invalid_argument(
        "DecentralizedMonitor: monitor message is not a frame");
  }
  monitor(msg.to).on_frame(std::unique_ptr<PayloadFrame>(
                               static_cast<PayloadFrame*>(msg.payload.release())),
                           now);
}

bool DecentralizedMonitor::all_finished() const {
  for (const auto& m : monitors_) {
    if (!m->finished()) return false;
  }
  return true;
}

SystemVerdict DecentralizedMonitor::result() const {
  SystemVerdict out;
  out.all_finished = all_finished();
  out.first_violation_time = first_violation_.load();
  out.first_satisfaction_time = first_satisfaction_.load();
  for (const auto& m : monitors_) {
    for (Verdict v : m->verdicts()) out.verdicts.insert(v);
    for (int q : m->current_states()) out.states.insert(q);
    out.per_monitor.push_back(m->stats());
    out.aggregate += m->stats();
  }
  return out;
}

std::vector<AtomSet> initial_letters_of(
    const AtomRegistry& registry, const std::vector<LocalState>& states) {
  std::vector<AtomSet> letters;
  letters.reserve(states.size());
  for (std::size_t p = 0; p < states.size(); ++p) {
    letters.push_back(
        registry.evaluate_local(static_cast<int>(p), states[p]));
  }
  return letters;
}

}  // namespace decmon
