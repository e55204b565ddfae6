#include "token_walk.hpp"

#include <algorithm>

namespace decmon::detail {
namespace {

/// depend := max(depend, vc, cut), component-wise: a step merges the
/// event's clock, and the frontier itself is always covered by the
/// dependency clock.
void merge_depend(FrontierSlot* f, std::size_t n, const VectorClock& vc) {
  for (std::size_t j = 0; j < n; ++j) {
    f[j].depend = std::max({f[j].depend, vc[j], f[j].cut});
  }
}

/// True iff cut(j) >= depend(j) everywhere (the cut is consistent).
bool cut_covers_depend(const FrontierSlot* f, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    if (f[j].cut < f[j].depend) return false;
  }
  return true;
}

/// Union of the per-process frontier letters.
AtomSet combined_gstate(const FrontierSlot* f, std::size_t n) {
  AtomSet a = 0;
  for (std::size_t j = 0; j < n; ++j) a |= f[j].gstate;
  return a;
}

/// What still keeps the entry open: the first process with a lagging cut
/// component (the frontier depends on events not yet included) or an open
/// conjunct; -1 when none does.
int first_open(const FrontierSlot* f, const TransitionEntry& entry) {
  for (std::size_t k = 0; k < entry.width(); ++k) {
    if (f[k].cut < f[k].depend || entry.conj[k] == ConjunctEval::kUnset) {
      return static_cast<int>(k);
    }
  }
  return -1;
}

/// Per record: whether an entry that does not move holds it.
using HeldRecords = SmallVec<std::uint8_t, 64>;

/// Before the entries `movers` advance together, make each record they
/// hold theirs alone: a record that an entry staying put also holds is
/// split copy-on-write, one copy shared by all its movers. Returns the
/// movers' records, each once.
SmallVec<std::uint32_t, 32> split_records(
    Token& token, const SmallVec<std::uint32_t, 32>& movers,
    const HeldRecords& held) {
  struct Moved {
    std::uint32_t from;
    std::uint32_t to;
  };
  SmallVec<Moved, 8> moved;
  SmallVec<std::uint32_t, 32> records;
  for (std::uint32_t idx : movers) {
    TransitionEntry& entry = token.entries[idx];
    std::size_t k = 0;
    while (k < moved.size() && moved[k].from != entry.frontier) ++k;
    if (k == moved.size()) {
      const std::uint32_t to = held[entry.frontier]
                                   ? token.records.add_copy(entry.frontier)
                                   : entry.frontier;
      moved.push_back({entry.frontier, to});
      records.push_back(to);
    }
    entry.frontier = moved[k].to;
  }
  return records;
}

/// The stay-points certified in one step, one per frontier: the last made.
struct Certified {
  std::uint32_t frontier;
  std::uint32_t sn;
  std::uint32_t stay;
};
using StayPoints = SmallVec<Certified, 8>;

/// The stay-point record certifying the entries at `frontier` at event `e`
/// (process `me`): a copy of the frontier with its `me` component at `e`,
/// shared by every entry there certified at the same event. Adding a record
/// moves the table's slots.
std::uint32_t certify(StayPoints& made, Token& token, std::uint32_t frontier,
                      const Event& e, std::size_t me) {
  std::size_t c = 0;
  while (c < made.size() && made[c].frontier != frontier) ++c;
  if (c == made.size() || made[c].sn != e.sn) {
    const std::uint32_t stay = token.records.add_copy(frontier);
    FrontierSlot* s = token.records[stay];
    s[me].cut = e.sn;
    s[me].gstate = e.letter;
    if (c == made.size()) made.push_back({});
    made[c] = {frontier, e.sn, stay};
  }
  return made[c].stay;
}

}  // namespace

TokenWalk::TokenWalk(const CompiledProperty& prop, int self,
                     std::span<const Event> window, std::uint32_t base)
    : prop_(prop),
      self_(self),
      me_(static_cast<std::size_t>(self)),
      n_(static_cast<std::size_t>(prop.num_processes())),
      window_(window),
      base_(base) {}

ProbeCandidates TokenWalk::candidates(int q, bool consistent,
                                      int extra_from_state) const {
  auto prunable = [&](int s) {
    // Final states have no outgoing transitions; settled states (no
    // definite verdict reachable, 7.2.2) are not worth probing.
    return prop_.is_final(s) || prop_.verdict_settled(s);
  };
  ProbeCandidates out;
  if (!prunable(q)) {
    for (int tid : prop_.outgoing(q)) out.push_back({tid, !consistent});
  }
  if (extra_from_state >= 0 && !prunable(extra_from_state)) {
    for (int tid : prop_.outgoing(extra_from_state)) out.push_back({tid, true});
  }
  return out;
}

bool TokenWalk::start_frontier(FrontierSlot* f, const GlobalView& gv,
                               const Event& e, bool pre, bool join) const {
  bool advanced = false;
  for (std::size_t j = 0; j < n_; ++j) {
    f[j].cut = join ? std::max(gv.cut[j], e.vc[j]) : gv.cut[j];
    f[j].gstate = gv.gstate[j];
    if (f[j].cut != gv.cut[j]) advanced = true;
  }
  if (pre) {
    const Event& prev = event_at(e.sn - 1);
    f[me_].cut = e.sn - 1;
    f[me_].gstate = prev.letter;
    // The rolled-back frontier event still carries dependencies: without
    // its clock in `depend`, a cut through it can pass the consistency
    // check while missing remote events it happened-after -- the walk then
    // certifies stay-points and enables transitions at cuts that lie on no
    // lattice path (fuzz-found unsound verdicts).
    merge_depend(f, n_, prev.vc);
  } else {
    // At the join, depend == cut: the join covers e.VC.
    merge_depend(f, n_, e.vc);
  }
  return advanced;
}

bool TokenWalk::believed_enabled(const FrontierSlot* f, int tid) const {
  const CompiledTransition& ct = prop_.transition(tid);
  for (std::size_t j = 0; j < n_; ++j) {
    if (f[j].cut < f[j].depend) return false;
    if (!ct.local[j].is_true() &&
        !prop_.locally_satisfied(tid, static_cast<int>(j), f[j].gstate)) {
      return false;
    }
  }
  return true;
}

void TokenWalk::admit(ProbeCandidates& candidates, const GlobalView& gv,
                      const Event& e, WalkMode mode) const {
  const bool join = mode == WalkMode::kJoinJump;
  const AtomSet pre_letter = event_at(e.sn - (e.sn > 0 ? 1 : 0)).letter;
  // A believed-enabled candidate opens an entry only where a walk remains:
  // a remote successor to verify (kExact, n > 1) or an advanced join
  // (kJoinJump). The frontiers that decide it, built on first use like
  // open()'s records: at-cut (or the join) and pre-cut.
  const bool check_enabled = join || n_ == 1;
  SmallVec<FrontierSlot, 8> starts[2];
  bool advanced = false;  // the join lies past the view's cut
  std::size_t kept = 0;
  for (const ProbeCandidate& cand : candidates) {
    const bool pre = !join && cand.pre_cut && e.sn > 0;
    // Skip when this process forbids the transition at every admissible
    // local position (Alg. 3 line 7).
    const bool sat_now = prop_.locally_satisfied(cand.tid, self_, e.letter);
    if (pre ? !sat_now && !prop_.locally_satisfied(cand.tid, self_, pre_letter)
            : !sat_now) {
      continue;
    }
    if (check_enabled) {
      SmallVec<FrontierSlot, 8>& f = starts[pre ? 1 : 0];
      if (f.empty()) {
        f.resize(n_);
        advanced = start_frontier(f.data(), gv, e, pre, join);
      }
      // kJoinJump: the deterministic step's own transition. One process:
      // the view's local steps cover every successor.
      if (!(join && advanced) && believed_enabled(f.data(), cand.tid)) {
        continue;
      }
    }
    candidates[kept++] = cand;
  }
  candidates.resize(kept);
}

void TokenWalk::open(Token& token, const ProbeCandidates& admitted,
                     const GlobalView& gv, const Event& e,
                     WalkMode mode) const {
  // Soundness of an entry rests on where its source state is *certified*:
  //   - "at-cut" entries (the view's state after a consistent step that
  //     consumed e): start at the cut including e;
  //   - "pre-cut" entries (the pre-advance state q_old whose other branches
  //     remain reachable through concurrent remote events, and the view's
  //     state on an inconsistent event, which never consumed e's cut): start
  //     at the cut *before* e -- the walk re-applies e itself, with the
  //     self-loop feasibility check, like any other event.
  // kJoinJump is the thesis's CheckOutgoingTransitions: every entry starts
  // at the join max(gcut, e.VC) with the current (possibly stale) beliefs,
  // and a fully-believed-satisfied transition at an advanced join fires
  // immediately. Kept for comparison; see WalkMode::kJoinJump. Design note:
  // skipping the intermediate cuts admits firings on paths that do not
  // exist (unsound, e.g. for X-shaped states without self-loops).
  const bool join = mode == WalkMode::kJoinJump;
  // Entries share at most two frontier records, each made with the first
  // entry that needs it: at-cut (or the join) and pre-cut.
  std::uint32_t records[2] = {kNoRecord, kNoRecord};
  for (const ProbeCandidate& cand : admitted) {
    const int tid = cand.tid;
    const bool pre = !join && cand.pre_cut && e.sn > 0;
    std::uint32_t& record = records[pre ? 1 : 0];
    if (record == kNoRecord) {
      record = token.records.add(n_);
      start_frontier(token.records[record], gv, e, pre, join);
    }
    const FrontierSlot* f = token.records[record];
    TransitionEntry entry;
    entry.transition_id = tid;
    entry.frontier = record;
    entry.conj.assign(n_, ConjunctEval::kTrue);
    // The local conjunct of an at-cut or join entry holds: its letter is
    // e's, checked in admit().
    const CompiledTransition& ct = prop_.transition(tid);
    for (std::size_t j = 0; j < n_; ++j) {
      if (!ct.local[j].is_true() &&
          !prop_.locally_satisfied(tid, static_cast<int>(j), f[j].gstate)) {
        entry.conj[j] = ConjunctEval::kUnset;
      }
    }
    // Initial target: first lagging component, else first open conjunct
    // (Alg. 3 lines 12-13).
    int next = first_open(f, entry);
    if (next < 0 && join) {
      // Believed-enabled at the advanced join (admitted only there):
      // resolved already, but routed through the token machinery so probe
      // deduplication keeps repeated beliefs from spawning unboundedly.
      entry.eval = EntryEval::kTrue;
    } else if (next < 0) {
      // The guard holds at the entry's own cut -- but the transition fires
      // at a *successor* cut (the source state holds after this one). The
      // local successor is covered by the view's own deterministic step;
      // remote successors need one verification step, or the pivot is lost
      // whenever the next local event is inconsistent (design note: the
      // thesis's "enabled transition" handling misses this case). Walk one
      // event on a remote participant (any remote process if the guard is
      // local-only; admitted only when there is one) and let the usual
      // completion rules decide there.
      for (int k : ct.participants) {
        if (k != self_) {
          next = k;
          break;
        }
      }
      if (next < 0) next = self_ == 0 ? 1 : 0;
      entry.conj[static_cast<std::size_t>(next)] = ConjunctEval::kUnset;
    }
    if (next >= 0) {
      entry.next_target_process = next;
      entry.next_target_event = f[static_cast<std::size_t>(next)].cut + 1;
    }
    token.entries.push_back(std::move(entry));
  }
}

void TokenWalk::step(Token& token, std::uint32_t sn) const {
  const Event& e = event_at(sn);
  // Entries that step at this event, and those of them that stay here after
  // it (retargeted to sn + 1): the candidates for the fast-forward below.
  SmallVec<std::uint32_t, 32> stepping;
  SmallVec<std::uint32_t, 32> stayed;
  // Last event a fast-forward may cover: one before the next event another
  // live entry awaits here (it joins the walk there), and the window's end.
  std::uint32_t run_end = end() - 1;
  for (std::size_t idx = 0; idx < token.entries.size(); ++idx) {
    const TransitionEntry& entry = token.entries[idx];
    if (entry.eval != EntryEval::kUnset || entry.next_target_process != self_) {
      continue;
    }
    if (entry.next_target_event == sn) {
      stepping.push_back(static_cast<std::uint32_t>(idx));
    } else {
      // The token targets the earliest request here, so this entry awaits
      // a later event; were it an earlier one, no run may start.
      run_end =
          std::min(run_end, std::max(entry.next_target_event, sn + 1) - 1);
    }
  }
  advance(token, stepping, /*exclusive=*/false, e);

  StayPoints made;
  bool any_true = false;
  for (std::uint32_t idx : stepping) {
    TransitionEntry& entry = token.entries[idx];
    const CompiledTransition& ct = prop_.transition(entry.transition_id);
    // A non-participant visit (successor verification or consistency
    // repair) has nothing to evaluate here.
    entry.conj[me_] =
        ct.local[me_].is_true() ||
                prop_.locally_satisfied(entry.transition_id, self_, e.letter)
            ? ConjunctEval::kTrue
            : ConjunctEval::kUnset;

    // Resolve or retarget (Alg. 4 lines 13-25, with the generalized order
    // check replacing Alg. 5's sibling-only flag rule).
    const FrontierSlot* f = token.frontier(entry);
    const int next = first_open(f, entry);
    if (next < 0) {
      // All conjuncts verified at a consistent cut: enabled (the pivot
      // global state is found).
      entry.eval = EntryEval::kTrue;
      any_true = true;
      continue;
    }

    // The walk must advance past the current cut. A source state without
    // any self-loop (X-shaped) leaves on *every* letter: the transition can
    // only fire exactly one event past the creation cut, so an entry that
    // did not complete on this event is infeasible.
    if (!ct.from_has_self_loop) {
      entry.eval = EntryEval::kFalse;
      continue;
    }
    // Otherwise, advancing is only a real path if the letter here keeps the
    // source state on a self-loop; the check applies at consistent cuts
    // (design note: this generalizes Alg. 5's flag rule, which only catches
    // competing sibling entries). An inconsistent cut is not a global state
    // of any path, so it is repaired, not judged.
    if (cut_covers_depend(f, n_)) {
      const MonitorTransition* t = prop_.match(ct.from, combined_gstate(f, n_));
      if (t && !t->self_loop()) {
        entry.eval = EntryEval::kFalse;
        continue;
      }
      // Certified stay-point: a consistent cut where the path provably can
      // remain at the source state (used to resurrect launchpad views).
      entry.stay = certify(made, token, entry.frontier, e, me_);
      f = token.frontier(entry);
    }
    // A conjunct re-opens when its process's slice will move.
    if (!ct.local[static_cast<std::size_t>(next)].is_true()) {
      entry.conj[static_cast<std::size_t>(next)] = ConjunctEval::kUnset;
    }
    entry.next_target_process = next;
    entry.next_target_event = f[static_cast<std::size_t>(next)].cut + 1;
    if (next == self_) stayed.push_back(idx);
  }
  // An enabled entry sends the token home right away; otherwise the token
  // stays and the stayers walk on.
  if (!any_true && !stayed.empty() && run_end > sn) {
    // Every record a stepping entry holds is held by stepping entries only
    // (split above), so when all of them stayed, the stayers' records are
    // theirs alone.
    fast_forward(token, stayed, sn + 1, run_end,
                 stayed.size() == stepping.size());
  }
  token.compact_records();
}

TokenWalk::StayKind TokenWalk::stay_kind(const FrontierSlot* s,
                                         const CompiledTransition& ct,
                                         AtomSet others,
                                         const Event& e) const {
  // One step of the loop above, reduced to its outcome for an entry that
  // stayed at every event since the run began: it leaves (resolves or
  // retargets), stays at an inconsistent cut, or stays at a consistent cut
  // and certifies it. The entry's cut and gstate off this process are
  // frozen, and its dependency clock after the step is max(depend, e.vc)
  // because clocks grow along the local history.
  bool consistent = true;
  for (std::size_t j = 0; j < n_; ++j) {
    if (j == me_) continue;
    if (std::max(s[j].depend, e.vc[j]) > s[j].cut) {
      if (j < me_) return StayKind::kLeave;  // retargets to j
      consistent = false;
    }
  }
  const bool repair = std::max(s[me_].depend, e.vc[me_]) > e.sn;
  if (!repair && !(!ct.local[me_].is_true() &&
                   !prop_.locally_satisfied(ct.id, self_, e.letter))) {
    return StayKind::kLeave;  // completes or retargets past this process
  }
  if (repair || !consistent) return StayKind::kStay;
  const MonitorTransition* t = prop_.match(ct.from, others | e.letter);
  if (t && !t->self_loop()) return StayKind::kLeave;  // resolves kFalse
  return StayKind::kStayCertified;
}

void TokenWalk::fast_forward(Token& token,
                             const SmallVec<std::uint32_t, 32>& stayed,
                             std::uint32_t first, std::uint32_t last,
                             bool exclusive) const {
  // Find the largest `last` such that every stayer stays at every event of
  // [first, last] (DESIGN.md §6.2). Over such a run the router keeps the
  // token here with no side effects, so the run collapses into one update
  // per record, bit-identical to walking it event by event. `exclusive`: no
  // other entry holds a record a stayer holds.
  struct Run {
    std::uint32_t idx;
    AtomSet others;             ///< frozen frontier letters off this process
    std::uint32_t first_cert;   ///< first certified event scanned (0: none)
    std::uint32_t last_cert;    ///< last certified event scanned (0: none)
  };
  SmallVec<Run, 32> runs;
  for (std::uint32_t idx : stayed) {
    const TransitionEntry& entry = token.entries[idx];
    const FrontierSlot* f = token.frontier(entry);
    const CompiledTransition& ct = prop_.transition(entry.transition_id);
    // Staying at first - 1 already showed every conjunct below this process
    // closed; nothing off this process changes while the walk stays here.
    Run run{idx, 0, 0, 0};
    for (std::size_t k = 0; k < n_; ++k) {
      if (k != me_) run.others |= f[k].gstate;
    }
    std::uint32_t sn = first;
    for (; sn <= last; ++sn) {
      const StayKind kind = stay_kind(f, ct, run.others, event_at(sn));
      if (kind == StayKind::kLeave) break;
      if (kind == StayKind::kStayCertified) {
        if (run.first_cert == 0) run.first_cert = sn;
        run.last_cert = sn;
      }
    }
    if (sn == first) return;  // this entry decides at `first`: walk it
    last = sn - 1;
    runs.push_back(run);
  }

  // Certify each run's stay-point.
  StayPoints made;
  for (const Run& run : runs) {
    TransitionEntry& entry = token.entries[run.idx];
    // The stay-point is the largest certified event in the final range.
    // Certification holds on an interval (the cut is consistent here once
    // depend(i) is passed, and off this process until a receive outruns
    // the frozen cut), so this almost always settles at `last` itself.
    std::uint32_t cert = run.last_cert;
    if (cert > last) {
      cert = 0;
      const FrontierSlot* f = token.frontier(entry);
      const CompiledTransition& ct = prop_.transition(entry.transition_id);
      for (std::uint32_t sn = last; sn >= run.first_cert; --sn) {
        if (stay_kind(f, ct, run.others, event_at(sn)) ==
            StayKind::kStayCertified) {
          cert = sn;
          break;
        }
      }
    }
    if (cert != 0) {
      entry.stay = certify(made, token, entry.frontier, event_at(cert), me_);
    }
    // conj(me) keeps the value the stay at first - 1 left: open for a
    // participant, true otherwise.
    entry.next_target_event = last + 1;
  }
  advance(token, stayed, exclusive, event_at(last));
}

void TokenWalk::advance(Token& token, const SmallVec<std::uint32_t, 32>& movers,
                        bool exclusive, const Event& e) const {
  // Unless the movers' (ascending) records are theirs alone, find those
  // another entry holds.
  HeldRecords held(token.records.size(), 0);
  for (std::size_t idx = 0, m = 0; !exclusive && idx < token.entries.size();
       ++idx) {
    if (m < movers.size() && movers[m] == idx) {
      ++m;
    } else {
      held[token.entries[idx].frontier] = 1;
    }
  }
  // The event moves each record once, whichever entries hold it.
  for (std::uint32_t r : split_records(token, movers, held)) {
    FrontierSlot* f = token.records[r];
    f[me_].cut = e.sn;
    f[me_].gstate = e.letter;
    merge_depend(f, n_, e.vc);
  }
}

void TokenWalk::fail_awaiting(Token& token, bool past_end) const {
  for (TransitionEntry& entry : token.entries) {
    const std::uint32_t sn = entry.next_target_event;
    if (entry.eval == EntryEval::kUnset && entry.next_target_process == self_ &&
        (past_end ? sn >= end() : sn < base_)) {
      entry.eval = EntryEval::kFalse;
    }
  }
}

Route TokenWalk::route(const Token& token, int self) {
  bool any_true = false;
  bool stay = false;
  // The live entry awaited at the lowest event off this process, the
  // parent's included.
  const TransitionEntry* earliest = nullptr;
  for (const TransitionEntry& e : token.entries) {
    if (e.eval == EntryEval::kTrue) any_true = true;
    if (e.eval != EntryEval::kUnset) continue;
    if (e.next_target_process == self) {
      stay = true;
    } else if (earliest == nullptr ||
               e.next_target_event < earliest->next_target_event) {
      earliest = &e;
    }
  }

  Route route{RouteRule::kParent, token.parent, 0};
  if (any_true) {
    route.rule = RouteRule::kEnabled;
  } else if (stay) {
    route = {RouteRule::kStay, self, 0};
  } else if (earliest != nullptr &&
             earliest->next_target_process != token.parent) {
    route = {RouteRule::kThird, earliest->next_target_process, 0};
  }
  // Otherwise the parent: no entry is live, or the parent's event is the
  // earliest awaited. Either way the token returns there (DESIGN.md §6.4).

  // Target event at the destination: the earliest live request there.
  bool have_target = false;
  for (const TransitionEntry& e : token.entries) {
    if (e.eval != EntryEval::kUnset || e.next_target_process != route.dest) {
      continue;
    }
    if (!have_target || e.next_target_event < route.target_event) {
      route.target_event = e.next_target_event;
      have_target = true;
    }
  }
  return route;
}

}  // namespace decmon::detail
