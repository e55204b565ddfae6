// A recorded distributed computation: per-process event sequences with
// vector clocks. Consistent cuts (Def. 4-5), frontier letters and the
// happened-before structure are all derived from here. The oracle, the
// slicer and the lattice builder operate on this representation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "decmon/distributed/event.hpp"
#include "decmon/ltl/atoms.hpp"
#include "decmon/util/fnv1a.hpp"

namespace decmon {

class Computation {
 public:
  /// A cut, as frontier sequence numbers: cut[i] = number of Pi's events
  /// included (0 = only the initial pseudo-event).
  using Cut = std::vector<std::uint32_t>;

  Computation() = default;

  /// `events[p][sn]` must hold process p's events indexed by sequence
  /// number, with the initial pseudo-event at index 0.
  explicit Computation(std::vector<std::vector<Event>> events);

  /// Appends the next event of `event.process`, checked as the constructor
  /// checks each event: it must carry the next sequence number and a clock
  /// as wide as the computation.
  void append(Event event);

  int num_processes() const { return static_cast<int>(events_.size()); }

  /// Number of real events of process `p` (excluding the initial one).
  std::uint32_t num_events(int p) const {
    return static_cast<std::uint32_t>(
               events_[static_cast<std::size_t>(p)].size()) -
           1;
  }

  /// Total real events across processes.
  std::uint64_t total_events() const;

  const Event& event(int p, std::uint32_t sn) const {
    return events_[static_cast<std::size_t>(p)][static_cast<std::size_t>(sn)];
  }

  Cut bottom() const { return Cut(static_cast<std::size_t>(num_processes()), 0); }
  Cut top() const;

  /// Is the cut consistent (Def. 4): closed under happened-before?
  bool consistent(const Cut& cut) const;

  /// Can the cut advance by one event of process `p` and stay consistent?
  bool can_advance(const Cut& cut, int p) const;

  /// Valuation of all atoms at the cut's frontier global state.
  AtomSet letter(const Cut& cut) const;

  /// The frontier global state (per-process variable valuations).
  GlobalState global_state(const Cut& cut) const;

 private:
  std::vector<std::vector<Event>> events_;
};

/// FNV-1a over a cut's words, for hash maps keyed by cuts.
struct CutHash {
  std::size_t operator()(const Computation::Cut& c) const noexcept {
    Fnv1a h;
    for (std::uint32_t x : c) h.mix(x);
    return static_cast<std::size_t>(h.value());
  }
};

/// Convenience builder for hand-written computations in tests and examples.
/// Maintains vector clocks like a real execution; messages are matched by
/// explicit handles.
class ComputationBuilder {
 public:
  /// `registry` may be null (letters stay 0).
  ComputationBuilder(int num_processes, const AtomRegistry* registry);

  void set_initial(int p, LocalState state);

  /// Internal event changing p's variables; returns its sequence number.
  std::uint32_t internal(int p, LocalState state);

  /// Send event at `from`; returns a message handle.
  int send(int from);

  /// Receive event at `to` consuming the handle from send().
  std::uint32_t receive(int to, int message);

  Computation build() const;

 private:
  Event make_event(int p, EventType type);

  const AtomRegistry* registry_;
  std::vector<std::vector<Event>> events_;
  std::vector<VectorClock> clocks_;
  std::vector<LocalState> states_;
  std::vector<VectorClock> messages_;
};

}  // namespace decmon
