// The token walk (thesis Alg. 3-5) and SendToNextProcess's destination
// choice (§4.2.0.6), as one unit of a token and one process's retained
// history window. A TokenWalk reads the property, the process index and the
// window, and writes only the token it is given; MonitorProcess builds one
// where it probes or walks a token, and keeps views, pools, parking, the
// disabled-entry fold and staging around it. Private to src/monitor.
#pragma once

#include <cstdint>
#include <span>

#include "decmon/distributed/event.hpp"
#include "decmon/monitor/global_view.hpp"
#include "decmon/monitor/monitor_process.hpp"
#include "decmon/monitor/predicate.hpp"
#include "decmon/monitor/token.hpp"
#include "decmon/util/small_vec.hpp"

namespace decmon::detail {

/// Which rule of SendToNextProcess chose the destination.
enum class RouteRule : std::uint8_t {
  kEnabled,  ///< (1) an entry is enabled: back to the parent
  kStay,     ///< (2) a live entry targets this process: stay
  kThird,    ///< (3) a third process is awaited earliest: go there
  kParent,   ///< (3) the parent is awaited earliest, or (4) none live:
             ///< back to the parent
};

struct Route {
  RouteRule rule;
  int dest;
  /// The earliest event that a live entry awaits at `dest`; 0 when none
  /// targets it.
  std::uint32_t target_event;
};

/// An outgoing transition a probe may open an entry for; a pre-cut entry
/// starts at the cut before the probing event.
struct ProbeCandidate {
  int tid;
  bool pre_cut;
};
using ProbeCandidates = SmallVec<ProbeCandidate, 32>;

class TokenWalk {
 public:
  /// `window` holds process `self`'s events with absolute sequence numbers
  /// [base, base + window.size()).
  TokenWalk(const CompiledProperty& prop, int self,
            std::span<const Event> window, std::uint32_t base);

  /// What a view in state `q` probes after an event (Alg. 3): the outgoing
  /// transitions of `q`, pre-cut when the event was inconsistent, then
  /// those of `extra_from_state` (when >= 0), pre-cut. Final and settled
  /// states (7.2.2) probe nothing.
  ProbeCandidates candidates(int q, bool consistent,
                             int extra_from_state) const;
  /// Keep, in order, the candidates that open an entry for view `gv` after
  /// event `e` (DESIGN.md §6.5): drop those this process forbids at every
  /// admissible local position (Alg. 3 line 7), and those already believed
  /// enabled where nothing is left to walk -- under kJoinJump at a join
  /// equal to the view's cut (the view's own step takes them), on a single
  /// process at any start (local steps cover them).
  void admit(ProbeCandidates& candidates, const GlobalView& gv,
             const Event& e, WalkMode mode) const;
  /// Open the probe's entries for view `gv` after event `e` in the empty
  /// `token`, one per `admitted` candidate (see admit()) and in its order,
  /// each with its conjuncts evaluated and its first target set.
  void open(Token& token, const ProbeCandidates& admitted,
            const GlobalView& gv, const Event& e, WalkMode mode) const;

  /// Apply local event `sn` to the entries awaiting it (Alg. 4-5), then
  /// fast-forward the entries that stay here over the following events at
  /// which none of them can decide (DESIGN.md §6.2).
  void step(Token& token, std::uint32_t sn) const;

  /// Resolve false the live entries awaiting an event here below the
  /// window (a duplicate-delivered token, DESIGN.md §12.2) or, when
  /// `past_end`, at or past its end (this process terminated; Theorem 1).
  void fail_awaiting(Token& token, bool past_end) const;

  /// Rules 1-4 of SendToNextProcess in order, for a token held by process
  /// `self`; the parent is `token.parent`. Under rule 3 the token goes to
  /// the process awaited by the live entry with the lowest
  /// next_target_event, the first such entry on a tie, and a return when
  /// that process is the parent (DESIGN.md §6.4).
  static Route route(const Token& token, int self);

 private:
  enum class StayKind : std::uint8_t { kLeave, kStay, kStayCertified };

  const Event& event_at(std::uint32_t sn) const {
    return window_[static_cast<std::size_t>(sn - base_)];
  }
  /// One past the window's last event.
  std::uint32_t end() const {
    return base_ + static_cast<std::uint32_t>(window_.size());
  }
  /// Write to `f` (n slots) the frontier a probe's entry starts at: the
  /// view's cut, the cut before `e` when `pre`, or the join max(cut, e.VC)
  /// when `join`. Returns whether it lies past the view's cut.
  bool start_frontier(FrontierSlot* f, const GlobalView& gv, const Event& e,
                      bool pre, bool join) const;
  /// Whether an entry for `tid` at frontier `f` has nothing left open: the
  /// cut is consistent and every conjunct holds at its letter.
  bool believed_enabled(const FrontierSlot* f, int tid) const;
  StayKind stay_kind(const FrontierSlot* frontier,
                     const CompiledTransition& ct, AtomSet others,
                     const Event& e) const;
  void fast_forward(Token& token, const SmallVec<std::uint32_t, 32>& stayed,
                    std::uint32_t first, std::uint32_t last,
                    bool exclusive) const;
  void advance(Token& token, const SmallVec<std::uint32_t, 32>& movers,
               bool exclusive, const Event& e) const;

  const CompiledProperty& prop_;
  int self_;
  std::size_t me_;
  std::size_t n_;
  std::span<const Event> window_;
  std::uint32_t base_;
};

}  // namespace decmon::detail
