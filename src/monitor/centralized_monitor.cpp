#include "decmon/monitor/centralized_monitor.hpp"

#include <stdexcept>
#include <utility>

namespace decmon {
namespace {
constexpr std::uint32_t kRunning = 0xFFFFFFFFu;
}

CentralizedMonitor::CentralizedMonitor(
    std::shared_ptr<const CompiledProperty> property, MonitorNetwork* network,
    std::vector<AtomSet> initial_letters, int central_node,
    std::size_t max_cuts)
    : prop_(std::move(property)),
      net_(network),
      central_(central_node),
      max_cuts_(max_cuts) {
  const int n = prop_->num_processes();
  if (static_cast<int>(initial_letters.size()) != n) {
    throw std::invalid_argument("CentralizedMonitor: bad initial letters");
  }
  events_.resize(static_cast<std::size_t>(n));
  last_sn_.assign(static_cast<std::size_t>(n), kRunning);
  for (int p = 0; p < n; ++p) {
    Event init;
    init.type = EventType::kInitial;
    init.process = p;
    init.sn = 0;
    init.vc = VectorClock(static_cast<std::size_t>(n));
    init.letter = initial_letters[static_cast<std::size_t>(p)];
    events_[static_cast<std::size_t>(p)].push_back(init);
  }
  // Seed the DP with the bottom cut.
  const Cut bottom(static_cast<std::size_t>(n), 0);
  const int q0 = prop_->step(prop_->initial_state(), letter_at(bottom));
  cuts_.emplace(bottom, std::uint64_t{1} << q0);
  const Verdict v = prop_->verdict(q0);
  if (v != Verdict::kUnknown) declared_.insert(v);
  work_.push_back(bottom);
  pump(0.0);
}

AtomSet CentralizedMonitor::letter_at(const Cut& cut) const {
  AtomSet a = 0;
  for (std::size_t p = 0; p < events_.size(); ++p) {
    a |= events_[p][cut[p]].letter;
  }
  return a;
}

void CentralizedMonitor::on_local_event(int proc, const Event& event,
                                        double now) {
  if (proc == central_) {
    central_ingest(event, now);
    return;
  }
  ++forwarded_;
  auto payload = std::make_unique<EventForwardMessage>();
  payload->event = event;
  net_->send(MonitorMessage{proc, central_, std::move(payload)});
}

void CentralizedMonitor::on_local_termination(int proc, double now) {
  // FIFO channels order the termination signal after every event of the
  // process, so on arrival the process's history is complete and the
  // signal itself needs no sequence number.
  if (proc == central_) {
    central_termination(proc, 0, now);
    return;
  }
  auto payload = std::make_unique<CentralTerminationMessage>();
  payload->process = proc;
  net_->send(MonitorMessage{proc, central_, std::move(payload)});
}

void CentralizedMonitor::on_monitor_message(MonitorMessage msg, double now) {
  if (msg.to != central_) {
    throw std::logic_error("CentralizedMonitor: message to non-central node");
  }
  NetPayload* payload = msg.payload.get();
  if (payload != nullptr && payload->tag == EventForwardMessage::kTag) {
    central_ingest(static_cast<EventForwardMessage*>(payload)->event, now);
  } else if (payload != nullptr &&
             payload->tag == CentralTerminationMessage::kTag) {
    auto* term = static_cast<CentralTerminationMessage*>(payload);
    central_termination(term->process, term->last_sn, now);
  } else {
    throw std::invalid_argument("CentralizedMonitor: unknown payload");
  }
}

void CentralizedMonitor::central_ingest(const Event& event, double now) {
  auto& hist = events_[static_cast<std::size_t>(event.process)];
  if (event.sn != hist.size()) {
    // FIFO channels deliver in order per process; anything else is a bug.
    throw std::logic_error("CentralizedMonitor: out-of-order event");
  }
  hist.push_back(event);
  // Wake cuts blocked on this event.
  auto it = blocked_.find({event.process, event.sn});
  if (it != blocked_.end()) {
    for (Cut& cut : it->second) work_.push_back(std::move(cut));
    blocked_.erase(it);
  }
  pump(now);
  check_finished(now);
}

void CentralizedMonitor::central_termination(int proc, std::uint32_t,
                                             double now) {
  // All of proc's events precede its termination signal on the FIFO
  // channel, so its history is complete: the last sn is what we have.
  last_sn_[static_cast<std::size_t>(proc)] = static_cast<std::uint32_t>(
      events_[static_cast<std::size_t>(proc)].size() - 1);
  check_finished(now);
}

void CentralizedMonitor::expand(const Cut& cut, double now) {
  const int n = static_cast<int>(events_.size());
  const std::uint64_t mask = cuts_.at(cut);
  for (int p = 0; p < n; ++p) {
    const std::uint32_t next = cut[static_cast<std::size_t>(p)] + 1;
    if (next >= events_[static_cast<std::size_t>(p)].size()) {
      // Event not received yet; park unless the process is done.
      if (last_sn_[static_cast<std::size_t>(p)] == kRunning ||
          next <= last_sn_[static_cast<std::size_t>(p)]) {
        blocked_[{p, next}].push_back(cut);
      }
      continue;
    }
    const Event& e = events_[static_cast<std::size_t>(p)][next];
    // Consistency: e's dependencies must be inside the cut. If a dependency
    // event is missing entirely, the wake happens when it arrives (e itself
    // re-blocks on the lagging component).
    bool ok = true;
    for (int j = 0; j < n && ok; ++j) {
      if (j == p) continue;
      if (e.vc[static_cast<std::size_t>(j)] > cut[static_cast<std::size_t>(j)]) {
        ok = false;
        // Advancing j may eventually unblock us; that path goes through the
        // cut's j-successor, which this DP explores anyway. No parking.
      }
    }
    if (!ok) continue;
    Cut succ = cut;
    ++succ[static_cast<std::size_t>(p)];
    const AtomSet letter = letter_at(succ);
    std::uint64_t succ_mask = 0;
    for (int q = 0; q < prop_->automaton().num_states(); ++q) {
      if (!(mask & (std::uint64_t{1} << q))) continue;
      succ_mask |= std::uint64_t{1} << prop_->step(q, letter);
    }
    auto [it, inserted] = cuts_.emplace(succ, succ_mask);
    if (!inserted) {
      const std::uint64_t before = it->second;
      it->second |= succ_mask;
      if (it->second == before) continue;  // nothing new to propagate
    } else if (cuts_.size() > max_cuts_) {
      throw std::length_error("CentralizedMonitor: lattice too large");
    }
    for (int q = 0; q < prop_->automaton().num_states(); ++q) {
      if (succ_mask & (std::uint64_t{1} << q)) {
        const Verdict v = prop_->verdict(q);
        if (v != Verdict::kUnknown) declared_.insert(v);
      }
    }
    work_.push_back(std::move(succ));
    (void)now;
  }
}

void CentralizedMonitor::pump(double now) {
  while (!work_.empty()) {
    Cut cut = std::move(work_.back());
    work_.pop_back();
    expand(cut, now);
  }
}

void CentralizedMonitor::check_finished(double now) {
  if (finished_) return;
  for (std::size_t p = 0; p < events_.size(); ++p) {
    if (last_sn_[p] == kRunning) return;
    if (events_[p].size() != static_cast<std::size_t>(last_sn_[p]) + 1) {
      return;
    }
  }
  finished_ = true;
  finish_time_ = now;
}

std::set<Verdict> CentralizedMonitor::verdicts() const {
  std::set<Verdict> out = declared_;
  for (int q : final_states()) out.insert(prop_->verdict(q));
  return out;
}

std::set<int> CentralizedMonitor::final_states() const {
  Cut top(events_.size());
  for (std::size_t p = 0; p < events_.size(); ++p) {
    top[p] = static_cast<std::uint32_t>(events_[p].size() - 1);
  }
  std::set<int> out;
  auto it = cuts_.find(top);
  if (it == cuts_.end()) return out;
  for (int q = 0; q < prop_->automaton().num_states(); ++q) {
    if (it->second & (std::uint64_t{1} << q)) out.insert(q);
  }
  return out;
}

}  // namespace decmon
