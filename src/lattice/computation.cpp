#include "decmon/lattice/computation.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace decmon {

Computation::Computation(std::vector<std::vector<Event>> events)
    : events_(events.size()) {
  for (std::size_t p = 0; p < events.size(); ++p) {
    if (events[p].empty()) {
      throw std::invalid_argument(
          "Computation: every process needs the initial pseudo-event");
    }
    events_[p].reserve(events[p].size());
    for (Event& e : events[p]) {
      if (e.process != static_cast<int>(p)) {
        throw std::invalid_argument("Computation: bad event indexing");
      }
      append(std::move(e));
    }
  }
}

void Computation::append(Event event) {
  const auto p = static_cast<std::size_t>(event.process);
  if (p >= events_.size() || event.sn != events_[p].size()) {
    throw std::invalid_argument("Computation: bad event indexing");
  }
  if (event.vc.size() != events_.size()) {
    throw std::invalid_argument("Computation: bad vector clock width");
  }
  events_[p].push_back(std::move(event));
}

std::uint64_t Computation::total_events() const {
  std::uint64_t total = 0;
  for (int p = 0; p < num_processes(); ++p) total += num_events(p);
  return total;
}

Computation::Cut Computation::top() const {
  Cut cut(static_cast<std::size_t>(num_processes()));
  for (int p = 0; p < num_processes(); ++p) {
    cut[static_cast<std::size_t>(p)] = num_events(p);
  }
  return cut;
}

bool Computation::consistent(const Cut& cut) const {
  const int n = num_processes();
  for (int i = 0; i < n; ++i) {
    const Event& e = event(i, cut[static_cast<std::size_t>(i)]);
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      if (e.vc[static_cast<std::size_t>(j)] > cut[static_cast<std::size_t>(j)]) {
        return false;
      }
    }
  }
  return true;
}

bool Computation::can_advance(const Cut& cut, int p) const {
  const std::uint32_t next = cut[static_cast<std::size_t>(p)] + 1;
  if (next > num_events(p)) return false;
  const Event& e = event(p, next);
  // The new event must not depend on anything outside the cut.
  for (int j = 0; j < num_processes(); ++j) {
    if (j == p) continue;
    if (e.vc[static_cast<std::size_t>(j)] > cut[static_cast<std::size_t>(j)]) {
      return false;
    }
  }
  return true;
}

AtomSet Computation::letter(const Cut& cut) const {
  AtomSet a = 0;
  for (int p = 0; p < num_processes(); ++p) {
    a |= event(p, cut[static_cast<std::size_t>(p)]).letter;
  }
  return a;
}

GlobalState Computation::global_state(const Cut& cut) const {
  GlobalState g;
  g.reserve(static_cast<std::size_t>(num_processes()));
  for (int p = 0; p < num_processes(); ++p) {
    g.push_back(event(p, cut[static_cast<std::size_t>(p)]).state);
  }
  return g;
}

ComputationBuilder::ComputationBuilder(int num_processes,
                                       const AtomRegistry* registry)
    : registry_(registry),
      events_(static_cast<std::size_t>(num_processes)),
      clocks_(static_cast<std::size_t>(num_processes),
              VectorClock(static_cast<std::size_t>(num_processes))),
      states_(static_cast<std::size_t>(num_processes)) {
  for (int p = 0; p < num_processes; ++p) {
    events_[static_cast<std::size_t>(p)].push_back(
        make_event(p, EventType::kInitial));
  }
}

Event ComputationBuilder::make_event(int p, EventType type) {
  Event e;
  e.type = type;
  e.process = p;
  e.sn = static_cast<std::uint32_t>(events_[static_cast<std::size_t>(p)].size());
  if (type == EventType::kInitial) e.sn = 0;
  e.vc = clocks_[static_cast<std::size_t>(p)];
  e.state = states_[static_cast<std::size_t>(p)];
  e.letter =
      registry_ ? registry_->evaluate_local(p, e.state) : 0;
  return e;
}

void ComputationBuilder::set_initial(int p, LocalState state) {
  auto& evs = events_[static_cast<std::size_t>(p)];
  if (evs.size() != 1) {
    throw std::logic_error("set_initial: events already recorded");
  }
  states_[static_cast<std::size_t>(p)] = std::move(state);
  evs[0] = make_event(p, EventType::kInitial);
  evs[0].sn = 0;
}

std::uint32_t ComputationBuilder::internal(int p, LocalState state) {
  states_[static_cast<std::size_t>(p)] = std::move(state);
  clocks_[static_cast<std::size_t>(p)].tick(static_cast<std::size_t>(p));
  Event e = make_event(p, EventType::kInternal);
  events_[static_cast<std::size_t>(p)].push_back(e);
  return e.sn;
}

int ComputationBuilder::send(int from) {
  clocks_[static_cast<std::size_t>(from)].tick(static_cast<std::size_t>(from));
  events_[static_cast<std::size_t>(from)].push_back(
      make_event(from, EventType::kSend));
  messages_.push_back(clocks_[static_cast<std::size_t>(from)]);
  return static_cast<int>(messages_.size()) - 1;
}

std::uint32_t ComputationBuilder::receive(int to, int message) {
  clocks_[static_cast<std::size_t>(to)].merge(
      messages_.at(static_cast<std::size_t>(message)));
  clocks_[static_cast<std::size_t>(to)].tick(static_cast<std::size_t>(to));
  Event e = make_event(to, EventType::kReceive);
  events_[static_cast<std::size_t>(to)].push_back(e);
  return e.sn;
}

Computation ComputationBuilder::build() const { return Computation(events_); }

}  // namespace decmon
