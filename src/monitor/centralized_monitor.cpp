#include "decmon/monitor/centralized_monitor.hpp"

#include <stdexcept>
#include <utility>

namespace decmon {
namespace {

Computation initial_computation(const std::vector<AtomSet>& letters, int n) {
  if (static_cast<int>(letters.size()) != n) {
    throw std::invalid_argument("CentralizedMonitor: bad initial letters");
  }
  std::vector<std::vector<Event>> events(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    Event& init = events[static_cast<std::size_t>(p)].emplace_back();
    init.type = EventType::kInitial;
    init.process = p;
    init.vc = VectorClock(static_cast<std::size_t>(n));
    init.letter = letters[static_cast<std::size_t>(p)];
  }
  return Computation(std::move(events));
}

}  // namespace

CentralizedMonitor::CentralizedMonitor(
    std::shared_ptr<const CompiledProperty> property, MonitorNetwork* network,
    std::vector<AtomSet> initial_letters, int central_node,
    std::size_t max_cuts)
    : prop_(std::move(property)),
      net_(network),
      central_(central_node),
      comp_(initial_computation(initial_letters, prop_->num_processes())),
      terminated_(static_cast<std::size_t>(prop_->num_processes()), false),
      walk_(comp_, prop_->automaton(), max_cuts, "CentralizedMonitor") {
  settle();
}

void CentralizedMonitor::on_local_event(int proc, const Event& event,
                                        double) {
  if (proc == central_) {
    comp_.append(event);
    pump();
    return;
  }
  ++forwarded_;
  auto payload = std::make_unique<EventForwardMessage>();
  payload->event = event;
  net_->send(MonitorMessage{proc, central_, std::move(payload)});
}

void CentralizedMonitor::on_local_termination(int proc, double) {
  // FIFO channels order the termination signal after every event of the
  // process, so on arrival the process's history is complete and the
  // signal itself needs no sequence number.
  if (proc == central_) {
    terminated_[static_cast<std::size_t>(proc)] = true;
    pump();
    return;
  }
  auto payload = std::make_unique<CentralTerminationMessage>();
  payload->process = proc;
  net_->send(MonitorMessage{proc, central_, std::move(payload)});
}

void CentralizedMonitor::on_monitor_message(MonitorMessage msg, double) {
  if (msg.to != central_) {
    throw std::logic_error("CentralizedMonitor: message to non-central node");
  }
  // FIFO channels deliver each process's events in order; append rejects
  // anything else.
  NetPayload* payload = msg.payload.get();
  if (payload != nullptr && payload->tag == EventForwardMessage::kTag) {
    comp_.append(static_cast<EventForwardMessage*>(payload)->event);
  } else if (payload != nullptr &&
             payload->tag == CentralTerminationMessage::kTag) {
    const int proc = static_cast<CentralTerminationMessage*>(payload)->process;
    terminated_.at(static_cast<std::size_t>(proc)) = true;
  } else {
    throw std::invalid_argument("CentralizedMonitor: unknown payload");
  }
  pump();
}

void CentralizedMonitor::pump() {
  const auto ready = [this] {
    const Computation::Cut& widest = walk_.layer_max();
    for (int p = 0; p < comp_.num_processes(); ++p) {
      const auto k = static_cast<std::size_t>(p);
      if (!terminated_[k] && comp_.num_events(p) <= widest[k]) return false;
    }
    return true;
  };
  const auto can_advance = [this](const Computation::Cut& cut, int p) {
    return comp_.can_advance(cut, p);
  };
  while (ready() && walk_.advance(can_advance)) settle();
}

void CentralizedMonitor::settle() {
  const std::uint64_t reached = walk_.settle();
  for (int q = 0; q < prop_->automaton().num_states(); ++q) {
    if (!(reached & (std::uint64_t{1} << q))) continue;
    const Verdict v = prop_->verdict(q);
    if (v != Verdict::kUnknown) declared_.insert(v);
  }
}

std::set<Verdict> CentralizedMonitor::verdicts() const {
  std::set<Verdict> out = declared_;
  for (int q : final_states()) out.insert(prop_->verdict(q));
  return out;
}

std::set<int> CentralizedMonitor::final_states() const {
  return walk_.at_top() ? walk_.result().final_states : std::set<int>{};
}

}  // namespace decmon
