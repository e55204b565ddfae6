#include "decmon/monitor/monitor_process.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "decmon/monitor/wire.hpp"
#include "decmon/util/fnv1a.hpp"
#include "token_walk.hpp"

namespace decmon {
namespace {

/// RAII guard for re-entrancy depth tracking.
class DepthGuard {
 public:
  explicit DepthGuard(int& depth) : depth_(depth) { ++depth_; }
  ~DepthGuard() { --depth_; }
  DepthGuard(const DepthGuard&) = delete;
  DepthGuard& operator=(const DepthGuard&) = delete;

 private:
  int& depth_;
};

constexpr std::uint32_t kRunning = 0xFFFFFFFFu;

/// Free-list bounds: generous for real runs, tight enough that a
/// pathological run cannot hoard memory through the pools. A token shell
/// keeps its token's tables, so pooled shells hold what a burst of returns
/// left behind; a few cover a monitor's probes (EXPERIMENTS.md round 19).
constexpr std::size_t kMaxPooledPayloads = 8;
constexpr std::size_t kMaxPooledFrames = 32;
constexpr std::size_t kMaxPooledViews = 128;

/// The probe's (state, transitions, beliefs) signature (4.3.2), over the
/// transitions it opens entries for. Only atoms the automaton reads matter:
/// beliefs differing in irrelevant variables describe the same probe.
std::uint64_t probe_signature(const CompiledProperty& prop,
                              const GlobalView& gv,
                              const detail::ProbeCandidates& admitted) {
  const AtomSet relevant = prop.relevant_atoms();
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(gv.q));
  for (const detail::ProbeCandidate& c : admitted) {
    h.mix(static_cast<std::uint64_t>(c.tid) + 1);
  }
  for (AtomSet s : gv.gstate) h.mix((s & relevant) ^ 0x5bd1e995u);
  return h.value();
}

/// Whether two probe memos hold the same admission inputs.
bool same_probe_inputs(const GlobalView::ProbeMemo& a,
                       const GlobalView::ProbeMemo& b) {
  return a.q == b.q && a.letter == b.letter && a.consistent == b.consistent &&
         a.extra_from_state == b.extra_from_state &&
         a.pre_letter == b.pre_letter;
}

}  // namespace

template <class Body>
void MonitorProcess::dispatch(Body&& body) {
  try {
    DepthGuard guard(dispatch_depth_);
    body();
  } catch (const MonitorOverflow&) {
    // An intentional bound tripped mid-dispatch. The guard has already
    // unwound, so the staged sends can leave before the throw surfaces --
    // checkpointing refuses monitors with staged traffic.
    sweep_dead_views();
    flush_staged();
    throw;
  }
  // Both no-op while an enclosing dispatch is still on the stack (on_frame
  // delivering its units): the outermost one sweeps and flushes once.
  sweep_dead_views();
  flush_staged();
}

MonitorProcess::MonitorProcess(int index,
                               std::shared_ptr<const CompiledProperty> property,
                               MonitorNetwork* network,
                               std::vector<AtomSet> initial_letters,
                               MonitorOptions options)
    : index_(index),
      n_(property->num_processes()),
      prop_(std::move(property)),
      net_(network),
      options_(options),
      peer_floor_(static_cast<std::size_t>(n_), 0),
      peer_floor_epoch_(static_cast<std::size_t>(n_), 0),
      peer_last_sn_(static_cast<std::size_t>(n_), kRunning) {
  if (static_cast<int>(initial_letters.size()) != n_) {
    throw std::invalid_argument("MonitorProcess: bad initial_letters size");
  }
  // INIT (Alg. 1): the initial global view points at the bottom cut; the
  // initial global state is the first letter the automaton consumes.
  Event init;
  init.type = EventType::kInitial;
  init.process = index_;
  init.sn = 0;
  init.vc = VectorClock(static_cast<std::size_t>(n_));
  init.letter = initial_letters[static_cast<std::size_t>(index_)];
  history_.push_back(init);
  stats_.peak_history = 1;

  GlobalView gv0;
  gv0.id = next_view_id_++;
  gv0.cut.assign(static_cast<std::size_t>(n_), 0);
  gv0.gstate.resize(static_cast<std::size_t>(n_));
  for (int j = 0; j < n_; ++j) {
    gv0.gstate[static_cast<std::size_t>(j)] =
        initial_letters[static_cast<std::size_t>(j)];
  }
  gv0.next_sn = static_cast<std::uint32_t>(history_.size());  // consumed sn 0
  gv0.q = prop_->step(prop_->initial_state(), gv0.combined_letter());
  ++stats_.global_views_created;
  views_.push_back(std::move(gv0));
  declare(views_.back().q, 0.0);
  dispatch([&] {
    if (!prop_->is_final(views_.back().q)) {
      probe_outgoing(views_.back(), history_[0], /*consistent=*/true, 0.0);
    }
  });
}

std::size_t MonitorProcess::num_views() const {
  std::size_t count = 0;
  for (const GlobalView& gv : views_) {
    if (!gv.dead) ++count;
  }
  return count;
}

std::set<int> MonitorProcess::current_states() const {
  std::set<int> states;
  for (const GlobalView& gv : views_) {
    if (!gv.dead) states.insert(gv.q);
  }
  return states;
}

std::set<Verdict> MonitorProcess::verdicts() const {
  std::set<Verdict> out = declared_;
  for (int q : current_states()) out.insert(prop_->verdict(q));
  return out;
}

void MonitorProcess::declare(int q, double now) {
  const Verdict v = prop_->verdict(q);
  if (v == Verdict::kUnknown) return;
  const bool fresh = declared_.insert(v).second;
  if (fresh && on_verdict_) on_verdict_(v, now);
}

// ---------------------------------------------------------------------------
// Free lists
// ---------------------------------------------------------------------------

std::unique_ptr<TokenMessage> MonitorProcess::acquire_shell() {
  if (payload_pool_.empty()) return std::make_unique<TokenMessage>();
  std::unique_ptr<TokenMessage> shell = std::move(payload_pool_.back());
  payload_pool_.pop_back();
  Token& t = shell->token;
  t.token_id = 0;
  t.parent = -1;
  t.parent_sn = 0;
  // Clearing keeps the entry and record tables' capacity.
  t.entries.clear();
  t.records.clear();
  t.next_target_process = -1;
  t.next_target_event = 0;
  t.hops = 0;
  return shell;
}

void MonitorProcess::recycle_shell(std::unique_ptr<TokenMessage> shell) {
  if (payload_pool_.size() < kMaxPooledPayloads) {
    payload_pool_.push_back(std::move(shell));
  }
}

std::unique_ptr<PayloadFrame> MonitorProcess::acquire_frame() {
  if (frame_pool_.empty()) return std::make_unique<PayloadFrame>();
  std::unique_ptr<PayloadFrame> frame = std::move(frame_pool_.back());
  frame_pool_.pop_back();
  return frame;
}

void MonitorProcess::recycle_frame(std::unique_ptr<PayloadFrame> frame) {
  if (frame && frame_pool_.size() < kMaxPooledFrames) {
    frame->units.clear();  // keeps the unit vector's capacity
    frame_pool_.push_back(std::move(frame));
  }
}

GlobalView MonitorProcess::acquire_view() {
  GlobalView v;
  if (!view_pool_.empty()) {
    v = std::move(view_pool_.back());
    view_pool_.pop_back();
    v.id = 0;
    v.q = 0;
    v.waiting = false;
    v.token_id = 0;
    v.forked_copy = false;
    v.next_sn = 0;
    v.probe_memo = {};
    v.dead = false;
    v.quarantined = false;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Send coalescing (DESIGN.md §9)
// ---------------------------------------------------------------------------

void MonitorProcess::stage_send(int dest, std::unique_ptr<NetPayload> unit) {
  staged_.push_back(StagedSend{dest, std::move(unit)});
}

void MonitorProcess::flush_staged() {
  // Flushing mid-dispatch would both break batching (each response would
  // leave alone) and reorder sends relative to the staging sequence; the
  // top-level entry point flushes once when its dispatch fully unwinds.
  if (dispatch_depth_ > 0 || staged_.empty()) return;
  std::size_t i = 0;
  while (i < staged_.size()) {
    const int dest = staged_[i].dest;
    std::unique_ptr<PayloadFrame> frame = acquire_frame();
    // One frame per consecutive same-destination run: this preserves the
    // inter-destination send order exactly (a full per-destination sort
    // would reorder sends and with them the simulator's latency-draw
    // sequence, perturbing the schedule goldens).
    do {
      frame->units.push_back(std::move(staged_[i].unit));
      ++i;
    } while (i < staged_.size() && staged_[i].dest == dest);
    // Stamps each unit's in-frame size and the frame total, without
    // materializing bytes (DESIGN.md §9).
    stats_.bytes_sent += stamp_frame_wire_size(*frame);
    ++stats_.frames_sent;
    net_->send(MonitorMessage{index_, dest, std::move(frame)});
  }
  staged_.clear();
}

// ---------------------------------------------------------------------------
// Event path (Alg. 2)
// ---------------------------------------------------------------------------

void MonitorProcess::on_local_event(const Event& event, double now) {
  dispatch([&] {
    if (event.sn != history_end()) {
      throw std::logic_error("MonitorProcess: out-of-order local event");
    }
    history_.push_back(event);
    views_changed_ = true;  // every view's backlog grew
    stats_.peak_history =
        std::max<std::uint64_t>(stats_.peak_history, history_.size());
    ++stats_.events_processed;

    // Tokens parked for this event (Alg. 2 lines 4-8). Extract first: token
    // processing can re-park or spawn views. Tokens parked during this loop
    // always target future events, so they never match the condition.
    for (std::size_t i = 0; i < w_tokens_.size();) {
      const Token& parked = w_tokens_[i]->token;
      if (parked.next_target_process == index_ &&
          parked.next_target_event <= event.sn) {
        std::unique_ptr<TokenMessage> shell = std::move(w_tokens_[i]);
        w_tokens_.erase(w_tokens_.begin() + static_cast<std::ptrdiff_t>(i));
        process_token(std::move(shell), now);
        // The erase shifted the next candidate into slot i.
      } else {
        ++i;
      }
    }

    // Advance every existing view's cursor over the shared history; no event
    // is copied anywhere. Views appended during the loop were created with
    // cuts/cursors already covering this event and drained at spawn.
    const std::size_t count = views_.size();
    for (std::size_t idx = 0; idx < count; ++idx) {
      GlobalView& gv = views_[idx];
      if (gv.dead) continue;
      if (gv.waiting) ++stats_.events_delayed;
      drain(gv, now);
    }
    sample_pending();
    merge_similar_views();
    if (options_.gc_interval != 0 &&
        ++events_since_gc_ >= options_.gc_interval) {
      events_since_gc_ = 0;
      gc_sweep(now);
    }
  });
}

void MonitorProcess::drain(GlobalView& gv, double now) {
  views_changed_ = true;
  // history_ only grows at the top of on_local_event -- never during a
  // dispatch -- so the reference into it stays valid across process_event
  // (which can spawn views, walk tokens and recurse back into drain).
  while (!gv.dead && !gv.waiting && gv.next_sn < history_end()) {
    const Event& e = event_at(gv.next_sn++);
    process_event(gv, e, now);
  }
}

void MonitorProcess::process_event(GlobalView& gv, const Event& e,
                                   double now) {
  gv.cut[static_cast<std::size_t>(index_)] = e.sn;
  gv.gstate[static_cast<std::size_t>(index_)] = e.letter;
  if (prop_->is_final(gv.q)) return;  // absorbing verdict

  // Consistency: the event must not know more about any peer than the view
  // does (Alg. 2 line 20).
  bool consistent = true;
  for (int j = 0; j < n_; ++j) {
    if (j == index_) continue;
    if (gv.cut[static_cast<std::size_t>(j)] <
        e.vc[static_cast<std::size_t>(j)]) {
      consistent = false;
      break;
    }
  }

  const int q_old = gv.q;
  if (consistent) {
    // Deterministic step on the believed global state (one letter per
    // event; Alg. 2 lines 21-25).
    const MonitorTransition* t = prop_->match(gv.q, gv.combined_letter());
    if (!t) {
      throw std::logic_error("MonitorProcess: incomplete automaton");
    }
    if (!t->self_loop()) {
      gv.q = t->to;
      declare(gv.q, now);
    }
  }
  // Probe from the post-advance state AND, when the step left q_old, from
  // q_old as well: concurrent remote events can enable a *different* branch
  // out of q_old at a cut containing this event (e.g. the paper's running
  // example, where the path through <e1_1, e2_2> reaches q1 although the
  // local path went to the violation state). Design note: the thesis only
  // probes from the new state, which loses such paths. Quarantined views
  // never probe: their position cannot anchor a sound token walk.
  if (!gv.quarantined) {
    probe_outgoing(gv, e, consistent, now, q_old != gv.q ? q_old : -1);
  }
}

void MonitorProcess::probe_outgoing(GlobalView& gv, const Event& e,
                                    bool consistent, double now,
                                    int extra_from_state) {
  // A repeat of the view's last rejected probe is rejected again without
  // evaluating it (DESIGN.md §6.5). Under kExact at n > 1 admission reads
  // only the inputs keyed here; kJoinJump and one process also read the
  // frontier, so they evaluate every probe.
  using Memo = GlobalView::ProbeMemo;
  const bool memoise = options_.walk_mode == WalkMode::kExact && n_ > 1;
  Memo key;
  if (memoise) {
    const AtomSet relevant = prop_->relevant_atoms();
    key.consistent = consistent;
    key.q = gv.q;
    key.extra_from_state = extra_from_state;
    key.letter = e.letter & relevant;
    // A pre-cut candidate is admitted on e's letter or the one before it
    // (admit() reads e's own at sn 0).
    if (!consistent || extra_from_state >= 0) {
      key.pre_letter = event_at(e.sn - (e.sn > 0 ? 1 : 0)).letter & relevant;
    }
    Memo& memo = gv.probe_memo;
    if (memo.outcome != Memo::Outcome::kNone && same_probe_inputs(memo, key)) {
      if (memo.outcome == Memo::Outcome::kAdmittedNothing) return;
      // Still a duplicate while its signature is outstanding: certainly
      // when nothing was erased since, otherwise after one lookup.
      if (memo.epoch == sig_epoch_ || outstanding_sigs_.count(memo.sig)) {
        memo.epoch = sig_epoch_;
        ++stats_.probes_deduped;
        return;
      }
    }
  }
  ++stats_.probes_evaluated;

  const detail::TokenWalk walk(*prop_, index_, history_, history_base_);
  detail::ProbeCandidates admitted =
      walk.candidates(gv.q, consistent, extra_from_state);
  walk.admit(admitted, gv, e, options_.walk_mode);
  if (admitted.empty()) {
    if (memoise) {
      key.outcome = Memo::Outcome::kAdmittedNothing;
      gv.probe_memo = key;
    }
    return;
  }

  // Optimization 4.3.2: skip duplicate probes -- the same (state,
  // transitions, beliefs) signature is already probed by an outstanding
  // token ("the new event is considered to be an element in the slice
  // being constructed"). Pivot cuts involving *new remote* events are
  // caught by the remote monitors' own probes (Theorem 4's progress-path
  // argument). The admitted candidates are the entries open() would push,
  // so a duplicate is rejected before anything is built (DESIGN.md §6.5).
  const std::uint64_t sig = probe_signature(*prop_, gv, admitted);
  if (options_.dedupe_probes && outstanding_sigs_.count(sig)) {
    ++stats_.probes_deduped;
    if (memoise) {
      key.outcome = Memo::Outcome::kDuplicate;
      key.sig = sig;
      key.epoch = sig_epoch_;
      gv.probe_memo = key;
    }
    return;
  }

  // A consistent probe forks a copy below; surface a cap breach before any
  // state mutates: no shell is taken, the view never starts waiting, no
  // signature is registered, and nothing is counted as created.
  if (consistent && options_.max_views &&
      views_.size() >= options_.max_views) {
    ++stats_.views_overflowed;
    throw MonitorOverflow("MonitorProcess: view cap exceeded (fork)");
  }

  std::unique_ptr<TokenMessage> shell = acquire_shell();
  Token& token = shell->token;
  walk.open(token, admitted, gv, e, options_.walk_mode);
  stats_.entries_opened += token.entries.size();
  token.token_id =
      (static_cast<std::uint64_t>(index_) << 32) | next_token_serial_++;
  token.parent = index_;
  token.parent_sn = e.sn;
  token.parent_vc = e.vc;
  ++stats_.tokens_created;

  if (options_.trace) {
    options_.trace(std::string("M")
                       .append(std::to_string(index_))
                       .append(" probe ")
                       .append(token.to_string())
                       .append(" from ")
                       .append(gv.to_string()));
  }
  views_changed_ = true;
  gv.waiting = true;
  gv.token_id = token.token_id;
  gv.probe_sig = sig;
  outstanding_sigs_.insert(sig);
  gv.forked_copy = consistent;
  if (consistent) {
    // Fork a copy that keeps tracing the path while the original waits for
    // the token (Alg. 2 lines 33-36).
    GlobalView copy = acquire_view();
    copy.cut = gv.cut;
    copy.gstate = gv.gstate;
    copy.q = gv.q;
    copy.next_sn = gv.next_sn;
    copy.id = next_view_id_++;
    views_.push_back(std::move(copy));
    ++stats_.global_views_created;
    drain(views_.back(), now);  // deque: pushing does not invalidate `gv`
  }
  // Dispatch: walks local targets over history (pre-cut entries re-consume
  // the triggering event here), routes remote targets, parks only on truly
  // future local events.
  process_token(std::move(shell), now);
}

// ---------------------------------------------------------------------------
// Token path (Alg. 3-5)
// ---------------------------------------------------------------------------

void MonitorProcess::on_token(std::unique_ptr<TokenMessage> shell,
                              double now) {
  dispatch([&] {
    if (shell->token.parent == index_) {
      handle_returned_token(std::move(shell), now);
    } else {
      process_token(std::move(shell), now);
    }
    merge_similar_views();
    check_finished(now);
  });
}

void MonitorProcess::on_frame(std::unique_ptr<PayloadFrame> frame,
                              double now) {
  stats_.bytes_received += frame->wire_size;
  // The dispatch depth holds across all units, so the responses any unit
  // provokes batch into the frames flushed once the whole frame is done.
  dispatch([&] {
    for (std::unique_ptr<NetPayload>& unit : frame->units) {
      if (!unit) continue;
      if (unit->tag == TokenMessage::kTag) {
        on_token(std::unique_ptr<TokenMessage>(
                     static_cast<TokenMessage*>(unit.release())),
                 now);
      } else if (unit->tag == TerminationMessage::kTag) {
        const auto& t = static_cast<const TerminationMessage&>(*unit);
        on_peer_termination(t.process, t.last_sn, now);
      } else if (unit->tag == HistoryFloorMessage::kTag) {
        const auto& f = static_cast<const HistoryFloorMessage&>(*unit);
        on_history_floor(f.process, f.floor, f.epoch, now);
      }
      // Other tags never appear inside a monitor-built frame; tolerate and
      // skip them (a hostile decoded frame cannot make this path throw).
    }
    frame->units.clear();
  });
  recycle_frame(std::move(frame));
}

void MonitorProcess::process_token(std::unique_ptr<TokenMessage> shell,
                                   double now) {
  Token& token = shell->token;
  // The window only grows at the top of on_local_event, never during a
  // walk.
  const detail::TokenWalk walk(*prop_, index_, history_, history_base_);
  while (true) {
    if (token.next_target_process != index_) {
      // Targeted elsewhere: route it. A false return means the router chose
      // to keep it here after all (some entry targets this process); the
      // loop continues with the updated local target.
      if (route_token(shell, now)) return;
      continue;
    }
    const std::uint32_t sn = token.next_target_event;
    if (sn < history_base_) {
      // Trimmed prefix. The floor gossip keeps live walks above the GC
      // base, so only a duplicate-delivered token can still target it.
      walk.fail_awaiting(token, /*past_end=*/false);
      if (route_token(shell, now)) return;
      continue;  // stays here, now targeting a retained event
    }
    if (sn >= history_end()) {
      if (!local_terminated_) {
        w_tokens_.push_back(std::move(shell));
        ++stats_.tokens_parked;
        stats_.peak_waiting_tokens = std::max<std::uint64_t>(
            stats_.peak_waiting_tokens, w_tokens_.size());
        return;
      }
      walk.fail_awaiting(token, /*past_end=*/true);
      if (!route_token(shell, now)) {
        throw std::logic_error(
            "MonitorProcess: token stuck after local termination");
      }
      return;
    }
    walk.step(token, sn);
    if (route_token(shell, now)) return;
    // Token stays here, now targeting a later local event; keep walking.
  }
}

bool MonitorProcess::route_token(std::unique_ptr<TokenMessage>& shell,
                                 double now) {
  Token& token = shell->token;
  const detail::Route route = detail::TokenWalk::route(token, index_);
  const int dest = route.dest;
  token.next_target_process = dest;
  token.next_target_event = route.target_event;
  if (route.rule == detail::RouteRule::kStay) return false;

  ++token.hops;
  ++stats_.token_hops;
  if (route.rule == detail::RouteRule::kThird) ++stats_.third_process_hops;
  if (dest == index_) {
    // Returning home without a hop (parent == current process).
    handle_returned_token(std::move(shell), now);
    return true;
  }
  ++stats_.token_messages_sent;
  // Of the entries resolved false, handle_returned_token reads only the
  // certified stay-point it would pick: the first with the largest
  // loop_cut_total. The others are dead (DESIGN.md §6.3) and do not travel;
  // the erase keeps the order of the rest, so that pick does not move.
  std::size_t keep = token.entries.size();
  std::uint64_t keep_total = 0;
  std::size_t disabled = 0;
  for (std::size_t i = 0; i < token.entries.size(); ++i) {
    const TransitionEntry& e = token.entries[i];
    if (e.eval != EntryEval::kFalse) continue;
    ++disabled;
    if (!e.loop_certified()) continue;
    const std::uint64_t total = token.loop_cut_total(e);
    if (keep == token.entries.size() || total > keep_total) {
      keep = i;
      keep_total = total;
    }
  }
  if (disabled > (keep < token.entries.size() ? 1u : 0u)) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < token.entries.size(); ++i) {
      if (token.entries[i].eval == EntryEval::kFalse && i != keep) continue;
      if (kept != i) token.entries[kept] = std::move(token.entries[i]);
      ++kept;
    }
    token.entries.resize(kept);
  }
  token.compact_records();
  // The shell is staged, not sent: it leaves inside a batched frame when
  // the current dispatch unwinds.
  stage_send(dest, std::move(shell));
  return true;
}

void MonitorProcess::handle_returned_token(
    std::unique_ptr<TokenMessage> shell, double now) {
  Token& token = shell->token;
  views_changed_ = true;
  GlobalView* gv = find_view_by_token(token.token_id);
  // The enabled entries are verified pivots of real lattice paths, so they
  // spawn even on an orphan return, below.
  bool spawned_to = false;
  // Local, not member scratch: spawn_view can re-enter this function
  // through drain -> probe_outgoing -> process_token -> route_token.
  SmallVec<char, 64> spawned_states(
      static_cast<std::size_t>(prop_->automaton().num_states()), 0);
  for (TransitionEntry& entry : token.entries) {
    if (entry.eval != EntryEval::kTrue) continue;
    spawn_view(token, entry, now);
    spawned_to = true;
    spawned_states[static_cast<std::size_t>(
        prop_->transition(entry.transition_id).to)] = 1;
  }
  if (!gv || gv->dead) {
    // Orphan return: the view vanished, or an earlier copy of this token
    // (duplicate delivery under fault injection) already resolved it.
    // spawned_memo_ dedupes the spawns above against the other copy, so
    // re-delivery stays idempotent instead of silently dropping paths.
    ++stats_.tokens_returned;
    recycle_shell(std::move(shell));
    if (spawned_to) check_finished(now);
    return;
  }
  if (spawned_to && options_.prune_same_destination) {
    // Optimization 4.3.3: transitions split from one disjunctive predicate
    // lead to the same state; satisfying one is enough.
    for (TransitionEntry& entry : token.entries) {
      if (entry.eval == EntryEval::kUnset &&
          spawned_states[static_cast<std::size_t>(
              prop_->transition(entry.transition_id).to)]) {
        entry.eval = EntryEval::kFalse;
      }
    }
  }
  // Remember the most advanced certified stay-point across all entries
  // (resolved ones included) before dropping them: resurrecting far along
  // the walk avoids re-probing the ground the token already covered.
  const TransitionEntry* cert = nullptr;
  std::uint64_t cert_total = 0;
  for (const TransitionEntry& entry : token.entries) {
    if (!entry.loop_certified()) continue;
    const std::uint64_t total = token.loop_cut_total(entry);
    if (!cert || total > cert_total) {
      cert = &entry;
      cert_total = total;
    }
  }
  SmallVec<std::uint32_t, 8> cert_cut;
  SmallVec<AtomSet, 8> cert_gstate;
  if (cert) {
    const FrontierSlot* s = token.stay(*cert);
    cert_cut.resize(cert->width());
    cert_gstate.resize(cert->width());
    for (std::size_t j = 0; j < cert->width(); ++j) {
      cert_cut[j] = s[j].cut;
      cert_gstate[j] = s[j].gstate;
    }
  }

  // Drop resolved entries.
  std::erase_if(token.entries, [](const TransitionEntry& e) {
    return e.eval != EntryEval::kUnset;
  });

  if (token.entries.empty()) {
    ++stats_.tokens_returned;
    // `token` and `cert` die with the shell; cert_cut holds the stay-point.
    recycle_shell(std::move(shell));
    gv->waiting = false;
    outstanding_sigs_.erase(gv->probe_sig);
    ++sig_epoch_;
    if (gv->forked_copy) {
      // A copy has been tracing the path from the launch position since the
      // probe went out: the launchpad is redundant.
      gv->dead = true;
    } else if (!cert_cut.empty() &&
               cert_cut[static_cast<std::size_t>(index_)] >= history_base_) {
      // Resurrection (design note): the launchpad had no copy continuing
      // the path (its triggering event was inconsistent), but the token
      // certified a consistent cut where the path can stay at the source
      // state. Resume the view there instead of killing it -- this is what
      // preserves the '?' path of the paper's running example (path beta).
      // The waiting view's GC keep-bound retains the certified cut's local
      // predecessor, so a first-delivery resurrection never rewinds below
      // the base; only a duplicate token can fail the check above, and it
      // falls through to the quarantine branch instead.
      gv->cut = std::move(cert_cut);
      gv->gstate = std::move(cert_gstate);
      gv->probe_memo = {};  // its remote beliefs changed
      // Rewind the cursor to the certified cut: its local component can lie
      // before events the launchpad already consumed, and the shared history
      // replays them without any copying.
      gv->next_sn = gv->cut[static_cast<std::size_t>(index_)] + 1;
      drain(*gv, now);
    } else {
      // No fork continued this path and the token certified no stay-point
      // (its entries resolved before crossing any consistent open cut).
      // Killing the view here loses real '?' paths (fuzz-found on the
      // thesis automata, whose per-conjunct self-loops are never probed) --
      // but its position is not certified to lie on any path either, so
      // letting it keep probing spawns definite-state views at unreachable
      // cuts (unsound on X-shaped automata). Quarantine it: it survives as
      // a passive '?' marker, draining but never probing again.
      gv->quarantined = true;
      drain(*gv, now);
    }
    check_finished(now);
    return;
  }
  // Live entries remain: an intermediate return (DESIGN.md §6.3). Walk on
  // from here.
  process_token(std::move(shell), now);
}

void MonitorProcess::spawn_view(const Token& token,
                                const TransitionEntry& entry, double now) {
  const FrontierSlot* f = token.frontier(entry);
  // A duplicate-delivered token can carry a pivot whose local component
  // precedes the GC base (the first copy spawned it before the trim); its
  // replay would read below the retained window, so skip it -- the first
  // copy's view already traces this path.
  if (f[index_].cut < history_base_) return;
  // Dedupe pivots: distinct tokens can detect the same (state, cut) pivot;
  // one view per pivot suffices (its continuation covers the rest).
  {
    Fnv1a key;
    key.mix(static_cast<std::uint64_t>(
        prop_->transition(entry.transition_id).to));
    for (std::size_t j = 0; j < entry.width(); ++j) key.mix(f[j].cut);
    const std::uint64_t h = key.value();
    if (spawned_memo_.count(h)) return;
    // Cap check before the memo insert and the pool acquire: a breach must
    // not leave a pivot marked spawned without its view, abandon a pooled
    // shell, or count a view that was never pushed.
    if (options_.max_views && views_.size() >= options_.max_views) {
      ++stats_.views_overflowed;
      throw MonitorOverflow("MonitorProcess: view cap exceeded (spawn)");
    }
    spawned_memo_.insert(h);
  }
  if (options_.trace) {
    options_.trace(std::string("M")
                       .append(std::to_string(index_))
                       .append(" spawn via ")
                       .append(token.entry_to_string(entry)));
  }
  GlobalView v = acquire_view();
  v.id = next_view_id_++;
  v.cut.resize(entry.width());
  v.gstate.resize(entry.width());
  for (std::size_t j = 0; j < entry.width(); ++j) {
    v.cut[j] = f[j].cut;
    v.gstate[j] = f[j].gstate;
  }
  v.q = prop_->transition(entry.transition_id).to;
  // The new path continues from the detected pivot cut: every local event
  // past the cut must still be consumed, including ones the parent already
  // processed -- the cursor starts at the pivot's local component, not at
  // the parent's position, and drain() replays the shared history from
  // there.
  v.next_sn = f[index_].cut + 1;
  declare(v.q, now);
  views_.push_back(std::move(v));
  ++stats_.global_views_created;
  drain(views_.back(), now);
}

GlobalView* MonitorProcess::find_view_by_token(std::uint64_t token_id) {
  for (GlobalView& gv : views_) {
    if (gv.waiting && gv.token_id == token_id) return &gv;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Termination (4.2.0.10)
// ---------------------------------------------------------------------------

void MonitorProcess::on_local_termination(double now) {
  dispatch([&] {
    local_terminated_ = true;
    peer_last_sn_[static_cast<std::size_t>(index_)] = history_end() - 1;
    // Announce to all peers. Staged like every send: a token flushed below
    // toward the same peer shares that peer's frame.
    for (int j = 0; j < n_; ++j) {
      if (j == index_) continue;
      auto payload = std::make_unique<TerminationMessage>();
      payload->process = index_;
      payload->last_sn = history_end() - 1;
      ++stats_.termination_messages;
      stage_send(j, std::move(payload));
    }
    // Local termination is set, so process_token fails every entry waiting
    // past history_end() and routes the token on.
    for (auto& shell : std::exchange(w_tokens_, {})) {
      process_token(std::move(shell), now);
    }
    merge_similar_views();
    check_finished(now);
  });
}

void MonitorProcess::on_peer_termination(int peer, std::uint32_t last_sn,
                                         double now) {
  dispatch([&] {
    peer_last_sn_[static_cast<std::size_t>(peer)] = last_sn;
    check_finished(now);
  });
}

// ---------------------------------------------------------------------------
// Streaming history GC (DESIGN.md §12)
// ---------------------------------------------------------------------------

void MonitorProcess::on_history_floor(int peer, std::uint32_t floor,
                                      std::uint32_t epoch, double now) {
  (void)now;
  if (peer < 0 || peer >= n_ || peer == index_) return;  // hostile decode
  std::uint32_t& slot = peer_floor_[static_cast<std::size_t>(peer)];
  std::uint32_t& slot_epoch = peer_floor_epoch_[static_cast<std::size_t>(peer)];
  if (epoch > slot_epoch) {
    // Floor-resync (DESIGN.md §13): the peer restarted from a checkpoint and
    // re-advertises its rewound promise. Replace, never max: the clamp is
    // the entire point, and any higher value we stored belongs to the dead
    // pre-crash epoch. Lowering the fold only blocks future trims -- history
    // already trimmed above the clamp is covered by the below-base guard,
    // which fails duplicate re-walks into the gone prefix.
    slot_epoch = epoch;
    slot = floor;
    return;
  }
  if (epoch < slot_epoch) return;  // stale pre-crash advertisement, reordered
  // Same epoch: floors only rise. A duplicated or reordered gossip message
  // can carry a stale (lower) value, and taking the max absorbs it.
  slot = std::max(slot, floor);
}

std::uint32_t MonitorProcess::trim_bound() const {
  std::uint32_t bound = history_end();
  auto lower = [&bound](std::uint32_t x) { bound = std::min(bound, x); };
  for (const GlobalView& gv : views_) {
    if (gv.dead) continue;
    // A non-waiting view re-reads from next_sn on and probes with the
    // predecessor letter at next_sn - 1. A waiting view can additionally be
    // resurrected at its token's certified loop cut, whose local component
    // of a pre-cut entry lies one event behind the frozen cursor's
    // predecessor -- one more event of slack.
    const std::uint32_t slack = gv.waiting ? 2 : 1;
    lower(gv.next_sn > slack ? gv.next_sn - slack : 0);
  }
  for (const std::unique_ptr<TokenMessage>& shell : w_tokens_) {
    // A parked token's entries can later retarget to, or spawn a view
    // anchored at, their current local cut component (predecessor letter
    // included); every entry counts, resolved ones too -- an enabled entry
    // still spawns on return.
    const Token& t = shell->token;
    for (const TransitionEntry& e : t.entries) lower(t.frontier(e)[index_].cut);
  }
  for (int j = 0; j < n_; ++j) {
    // Remote walks are bounded by the gossiped floors. A peer that has not
    // gossiped yet sits at floor 0 and blocks all trimming -- safe by
    // construction.
    if (j == index_) continue;
    lower(peer_floor_[static_cast<std::size_t>(j)]);
  }
  return bound;
}

void MonitorProcess::advertise_floors() {
  // Gossip our floors: for each peer j, the smallest j-component across our
  // live views -- no walk or spawn we can still launch ever references j's
  // events below it (entry cuts start at a live view's cut and only grow,
  // and a token in flight keeps its launchpad frozen in views_). A monitor
  // with no live views constrains nothing new and keeps its last
  // advertisement by staying silent.
  SmallVec<std::uint32_t, 8> floors;
  floors.assign(static_cast<std::size_t>(n_), 0xFFFFFFFFu);
  bool any_live = false;
  for (const GlobalView& gv : views_) {
    if (gv.dead) continue;
    any_live = true;
    for (int j = 0; j < n_; ++j) {
      floors[static_cast<std::size_t>(j)] =
          std::min(floors[static_cast<std::size_t>(j)],
                   gv.cut[static_cast<std::size_t>(j)]);
    }
  }
  if (!any_live) return;
  for (int j = 0; j < n_; ++j) {
    if (j == index_) continue;
    auto payload = std::make_unique<HistoryFloorMessage>();
    payload->process = index_;
    payload->floor = floors[static_cast<std::size_t>(j)];
    payload->epoch = floor_epoch_;
    ++stats_.floor_messages;
    stage_send(j, std::move(payload));
  }
}

void MonitorProcess::resync_floors(double now) {
  if (options_.gc_interval == 0) return;
  ++stats_.resync_floors;
  dispatch([&] {
    // The restored floor_epoch_ equals the pre-crash value (stride-1
    // checkpoints cover it), so the bump makes this restart's advertisements
    // strictly newer than anything the dead incarnation sent. Peers replace
    // their stored fold on the first message of the new epoch -- even when
    // the re-advertised floor is LOWER than the pre-crash promise -- and
    // discard reordered stragglers from the old one.
    ++floor_epoch_;
    advertise_floors();
  });
  (void)now;
}

void MonitorProcess::gc_sweep(double now) {
  (void)now;
  ++stats_.gc_sweeps;
  advertise_floors();
  const std::uint32_t bound = trim_bound();
  if (bound > history_base_) {
    const std::size_t k = static_cast<std::size_t>(bound - history_base_);
    history_.erase(history_.begin(),
                   history_.begin() + static_cast<std::ptrdiff_t>(k));
    history_base_ = bound;
    stats_.history_trimmed += k;
  }
}

void MonitorProcess::check_finished(double now) {
  if (finished_) return;
  if (!local_terminated_) return;
  for (int j = 0; j < n_; ++j) {
    if (peer_last_sn_[static_cast<std::size_t>(j)] == kRunning) return;
  }
  if (!w_tokens_.empty()) return;
  for (const GlobalView& gv : views_) {
    if (!gv.dead && gv.waiting) return;
  }
  finished_ = true;
  stats_.finish_time = now;
}

// ---------------------------------------------------------------------------
// Bookkeeping
// ---------------------------------------------------------------------------

void MonitorProcess::merge_similar_views() {
  // Keep one settled (non-waiting, fully drained) view per key; waiting
  // views own live tokens and never merge. Under merge_by_state the key is
  // the automaton state -- 4.4.1's bound, "the final number of global views
  // is bounded by the number of automaton states" -- held in a flat array
  // indexed by state id. Otherwise the key is (state, cut): equal keys
  // trace the same sub-lattice from here on (4.3.2). Those are looked up by
  // a precomputed FNV-1a hash of (q, cut) and compared exactly, so a 64-bit
  // collision between distinct keys only skips a merge. Scratch containers
  // are members so their capacity persists (merge runs only at the tail of
  // top-level dispatches, never re-entered).
  // A token that only visited here touched no view: the last merge still
  // holds, and so does the live-view peak it recorded.
  if (!views_changed_) return;
  views_changed_ = false;
  std::vector<GlobalView*>& best = merge_best_;
  std::unordered_map<std::uint64_t, GlobalView*>& seen = merge_seen_;
  if (options_.merge_by_state) {
    best.assign(static_cast<std::size_t>(prop_->automaton().num_states()),
                nullptr);
  } else {
    seen.clear();
  }
  auto cut_sum = [](const GlobalView& gv) {
    std::uint64_t sum = 0;
    for (std::uint32_t x : gv.cut) sum += x;
    return sum;
  };
  for (GlobalView& gv : views_) {
    if (gv.dead || gv.waiting || gv.next_sn < history_end()) continue;
    GlobalView** slot;
    if (options_.merge_by_state) {
      slot = &best[static_cast<std::size_t>(gv.q)];
      if (!*slot) {
        *slot = &gv;
        continue;
      }
    } else {
      Fnv1a key;
      key.mix(static_cast<std::uint64_t>(gv.q));
      for (std::uint32_t x : gv.cut) key.mix(x + 1);
      auto [it, inserted] = seen.emplace(key.value(), &gv);
      if (inserted || it->second->q != gv.q || it->second->cut != gv.cut) {
        continue;
      }
      slot = &it->second;
    }
    // One preference rule: a healthy view beats a quarantined one (the
    // survivor carries the key's future probes), then the larger cut sum
    // (the most advanced cut), then the view met first.
    GlobalView*& keep = *slot;
    const bool replace = keep->quarantined != gv.quarantined
                             ? keep->quarantined
                             : cut_sum(gv) > cut_sum(*keep);
    if (replace) {
      keep->dead = true;
      keep = &gv;
    } else {
      gv.dead = true;
    }
    ++stats_.global_views_merged;
  }

  std::uint64_t live = 0;
  for (const GlobalView& gv : views_) {
    if (!gv.dead) ++live;
  }
  stats_.peak_global_views = std::max(stats_.peak_global_views, live);
}

void MonitorProcess::sweep_dead_views() {
  if (dispatch_depth_ > 0) return;  // references may still be on the stack
  // Harvest dead views into the free list first (their dead flag survives
  // the move -- scalars are copied, not reset), then erase the husks.
  for (GlobalView& gv : views_) {
    if (gv.dead && view_pool_.size() < kMaxPooledViews) {
      view_pool_.push_back(std::move(gv));
    }
  }
  std::erase_if(views_, [](const GlobalView& gv) { return gv.dead; });
}

void MonitorProcess::sample_pending() {
  // A view's backlog is the tail of the shared history past its cursor.
  std::uint64_t total = 0;
  const std::uint32_t end = history_end();
  for (const GlobalView& gv : views_) {
    if (gv.dead) continue;
    total += end - gv.next_sn;
  }
  stats_.pending_sum += total;
  ++stats_.pending_samples;
  stats_.max_pending = std::max(stats_.max_pending, total);
}

}  // namespace decmon
