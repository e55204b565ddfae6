// Global views: one per lattice path a monitor traces (§4.2). A view holds
// the frontier cut it believes in, the believed local letters, the current
// automaton state and a cursor into the monitor's shared local-event
// history marking the next event this view has yet to consume.
#pragma once

#include <cstdint>
#include <string>

#include "decmon/ltl/atoms.hpp"
#include "decmon/util/small_vec.hpp"

namespace decmon {

struct GlobalView {
  std::uint64_t id = 0;

  /// Frontier cut: per-process sequence number of the last included event.
  /// Inline up to 8 processes so forking a view is allocation-free.
  SmallVec<std::uint32_t, 8> cut;

  /// Believed local letters at the cut frontier.
  SmallVec<AtomSet, 8> gstate;

  /// Current monitor automaton state.
  int q = 0;

  /// True while a token created by this view is outstanding; the cursor
  /// stalls meanwhile (the paper's waiting status).
  bool waiting = false;
  std::uint64_t token_id = 0;

  /// True when a copy was forked to continue the path, making this view a
  /// pure launchpad that dies once its token resolves (keepAfterFork).
  bool forked_copy = false;

  /// Cursor into MonitorProcess::history_: the sn of the next local event
  /// this view has not consumed yet. Views never copy events -- the event
  /// backlog of a view is exactly history_[next_sn, history_.size()), and
  /// the invariant next_sn <= history_.size() always holds.
  std::uint32_t next_sn = 0;

  /// Signature of the probe this view's outstanding token carries
  /// (optimization §4.3.2); erased from the monitor's set when it returns.
  std::uint64_t probe_sig = 0;

  /// This view's last rejected probe (DESIGN.md §6.5): the inputs the
  /// admission step read, and what it concluded. A repeat with equal
  /// inputs skips the probe. The remote beliefs the signature also reads
  /// are not stored: they change only when the view is created, resurrected
  /// or restored, and each of those starts the memo empty.
  struct ProbeMemo {
    enum class Outcome : std::uint8_t { kNone, kAdmittedNothing, kDuplicate };
    Outcome outcome = Outcome::kNone;
    bool consistent = false;
    int q = 0;
    int extra_from_state = -1;
    AtomSet letter = 0;      ///< the event's letter, relevant atoms only
    AtomSet pre_letter = 0;  ///< the previous letter, when a pre-cut probe
    /// kDuplicate: the outstanding signature, and the monitor's erase epoch
    /// at which it was last seen outstanding.
    std::uint64_t sig = 0;
    std::uint64_t epoch = 0;
  };
  ProbeMemo probe_memo;

  /// Marked for removal; swept after the current dispatch round.
  bool dead = false;

  /// The view's position is no longer certified to lie on any lattice path
  /// (it consumed an event inconsistently and its probe resolved without a
  /// fork or a certified stay-point). A quarantined view keeps draining and
  /// keeps contributing its '?' verdict -- killing it loses real '?' paths
  /// -- but it launches no further probes (its position cannot anchor a
  /// sound token walk) and never displaces a healthy view in the merge
  /// passes. It can never consistently step again: its remote cut
  /// components are frozen while local vector clocks only grow.
  bool quarantined = false;

  AtomSet combined_letter() const {
    AtomSet a = 0;
    for (AtomSet s : gstate) a |= s;
    return a;
  }

  std::string to_string() const;
};

}  // namespace decmon
