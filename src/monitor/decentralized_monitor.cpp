#include "decmon/monitor/decentralized_monitor.hpp"

#include <atomic>
#include <stdexcept>

#include "decmon/monitor/token.hpp"

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
  MonitorProcess& target = monitor(msg.to);
  NetPayload* payload = msg.payload.get();
  if (payload != nullptr && payload->tag == TokenMessage::kTag) {
    // Take ownership: move the token out, then hand the empty shell (and
    // whatever heap capacity its token accumulated) to the receiving
    // monitor's free list for reuse on its next send.
    msg.payload.release();
    std::unique_ptr<TokenMessage> shell(static_cast<TokenMessage*>(payload));
    Token token = std::move(shell->token);
    target.recycle_token_payload(std::move(shell));
    target.on_token(std::move(token), now);
  } else if (payload != nullptr && payload->tag == TerminationMessage::kTag) {
    auto* term = static_cast<TerminationMessage*>(payload);
    target.on_peer_termination(term->process, term->last_sn, now);
  } else if (payload != nullptr && payload->tag == PayloadFrame::kTag) {
    msg.payload.release();
    target.on_frame(
        std::unique_ptr<PayloadFrame>(static_cast<PayloadFrame*>(payload)),
        now);
  } else if (payload != nullptr && payload->tag == HistoryFloorMessage::kTag) {
    auto* floor = static_cast<HistoryFloorMessage*>(payload);
    target.on_history_floor(floor->process, floor->floor, floor->epoch, now);
  } else {
    throw std::invalid_argument(
        "DecentralizedMonitor: unknown monitor message payload");
  }
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
