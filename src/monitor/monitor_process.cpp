#include "decmon/monitor/monitor_process.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "decmon/monitor/wire.hpp"
#include "token_route.hpp"

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

/// Records are added as entries step apart and certify; erased entries and
/// replaced stay-points leave records nobody holds. Drop them once they
/// could outnumber the live ones.
void compact_if_sparse(Token& token) {
  if (token.records.size() > 2 * token.entries.size() + 8) {
    token.compact_records();
  }
}

}  // namespace

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
  if (!prop_->is_final(views_.back().q)) {
    DepthGuard guard(dispatch_depth_);
    probe_outgoing(views_.back(), history_[0], /*consistent=*/true, 0.0);
  }
  sweep_dead_views();
  flush_staged();
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
    v.probe_sig = 0;
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
  try {
  {
  DepthGuard guard(dispatch_depth_);
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
  sweep_dead_views();
  if (options_.gc_interval != 0 &&
      ++events_since_gc_ >= options_.gc_interval) {
    events_since_gc_ = 0;
    gc_sweep(now);
  }
  }  // dispatch scope: the flush below must see depth 0
  } catch (const MonitorOverflow&) {
    // An intentional bound tripped mid-dispatch. The DepthGuard has already
    // unwound, so the staged sends can leave before the throw surfaces --
    // checkpointing refuses monitors with staged traffic.
    flush_staged();
    throw;
  }
  flush_staged();
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

std::uint64_t MonitorProcess::probe_signature(
    const GlobalView& gv, const SmallVec<int, 32>& tids) const {
  // Only atoms the automaton reads matter: beliefs differing in irrelevant
  // variables describe the same probe.
  const AtomSet relevant = prop_->relevant_atoms();
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(gv.q));
  for (int t : tids) mix(static_cast<std::uint64_t>(t) + 1);
  for (AtomSet s : gv.gstate) mix((s & relevant) ^ 0x5bd1e995u);
  return h;
}

void MonitorProcess::probe_outgoing(GlobalView& gv, const Event& e,
                                    bool consistent, double now,
                                    int extra_from_state) {
  // Soundness of a probe entry rests on where its source state is
  // *certified*:
  //   - "at-cut" entries (the view's state after a consistent step that
  //     consumed e): start at the cut including e;
  //   - "pre-cut" entries (the pre-advance state q_old whose other branches
  //     remain reachable through concurrent remote events, and the view's
  //     state on an inconsistent event, which never consumed e's cut): start
  //     at the cut *before* e -- the walk re-applies e itself, with the
  //     self-loop feasibility check, like any other event.
  // Design note: the thesis starts every entry at the join max(gcut, e.VC),
  // skipping intermediate cuts entirely; that admits firings on paths that
  // do not exist (unsound, e.g. for X-shaped states without self-loops).
  struct Candidate {
    int tid;
    bool pre_cut;
  };
  auto prunable = [&](int q) {
    // Final states have no outgoing transitions; settled states (no
    // definite verdict reachable, 7.2.2) are not worth probing.
    return prop_->is_final(q) || prop_->verdict_settled(q);
  };
  SmallVec<Candidate, 32> candidates;
  if (!prunable(gv.q)) {
    for (int tid : prop_->outgoing(gv.q)) {
      candidates.push_back({tid, !consistent});
    }
  }
  if (extra_from_state >= 0 && !prunable(extra_from_state)) {
    for (int tid : prop_->outgoing(extra_from_state)) {
      candidates.push_back({tid, true});
    }
  }
  if (candidates.empty()) return;

  const AtomSet pre_letter =
      event_at(e.sn - (e.sn > 0 ? 1 : 0)).letter;

  // Entries are built directly into a pooled shell; if the probe turns out
  // empty or a duplicate, the shell (and its capacity) goes back unsent.
  std::unique_ptr<TokenMessage> shell = acquire_shell();
  Token& token = shell->token;
  SmallVec<int, 32> tids;

  const std::size_t n = static_cast<std::size_t>(n_);
  if (options_.walk_mode == WalkMode::kJoinJump) {
    // The thesis's CheckOutgoingTransitions: entries start at the join
    // max(gcut, e.VC) with the current (possibly stale) beliefs, and a
    // fully-believed-satisfied transition at an advanced join fires
    // immediately. Kept for comparison; see WalkMode::kJoinJump. Every
    // entry shares the one frontier record at the join.
    std::uint32_t joined = kNoRecord;
    bool advanced = false;
    for (const Candidate& cand : candidates) {
      const int tid = cand.tid;
      if (!prop_->locally_satisfied(tid, index_, e.letter)) continue;
      if (joined == kNoRecord) {
        joined = token.records.add(n);
        FrontierSlot* f = token.records[joined];
        for (std::size_t j = 0; j < n; ++j) {
          f[j].cut = std::max(gv.cut[j], e.vc[j]);
          if (f[j].cut != gv.cut[j]) advanced = true;
          f[j].gstate = gv.gstate[j];
          f[j].depend = f[j].cut;
        }
      }
      const FrontierSlot* f = token.records[joined];
      TransitionEntry entry;
      entry.transition_id = tid;
      entry.frontier = joined;
      entry.conj.assign(n, ConjunctEval::kTrue);
      const CompiledTransition& ct = prop_->transition(tid);
      bool needs_walk = false;
      for (int j = 0; j < n_; ++j) {
        if (j == index_) continue;
        if (!ct.local[static_cast<std::size_t>(j)].is_true() &&
            !prop_->locally_satisfied(tid, j,
                                      f[static_cast<std::size_t>(j)].gstate)) {
          entry.conj[static_cast<std::size_t>(j)] = ConjunctEval::kUnset;
          needs_walk = true;
        }
      }
      if (!needs_walk) {
        if (!advanced) continue;  // the deterministic step's own transition
        // Believed-enabled at the advanced join: resolved already, but
        // routed through the token machinery so probe deduplication keeps
        // repeated beliefs from spawning unboundedly.
        entry.eval = EntryEval::kTrue;
      } else {
        for (int j = 0; j < n_; ++j) {
          if (entry.conj[static_cast<std::size_t>(j)] ==
              ConjunctEval::kUnset) {
            entry.next_target_process = j;
            entry.next_target_event = f[static_cast<std::size_t>(j)].cut + 1;
            break;
          }
        }
      }
      tids.push_back(tid);
      token.entries.push_back(std::move(entry));
    }
    if (token.entries.empty()) {
      recycle_shell(std::move(shell));
      return;
    }
  } else {
  // Entries share at most two frontier records, each made with the first
  // entry that needs it: at-cut and pre-cut.
  std::uint32_t records[2] = {kNoRecord, kNoRecord};
  const std::size_t me = static_cast<std::size_t>(index_);
  for (const Candidate& cand : candidates) {
    const int tid = cand.tid;
    const bool pre = cand.pre_cut && e.sn > 0;
    // Skip when this process forbids the transition at every admissible
    // local position (Alg. 3 line 7).
    const bool sat_now = prop_->locally_satisfied(tid, index_, e.letter);
    const bool sat_pre = prop_->locally_satisfied(tid, index_, pre_letter);
    if (pre ? (!sat_now && !sat_pre) : !sat_now) continue;

    std::uint32_t& record = records[pre ? 1 : 0];
    if (record == kNoRecord) {
      record = token.records.add(n);
      FrontierSlot* f = token.records[record];
      for (std::size_t j = 0; j < n; ++j) {
        f[j].cut = gv.cut[j];
        f[j].gstate = gv.gstate[j];
      }
      if (pre) {
        f[me].cut = e.sn - 1;
        f[me].gstate = pre_letter;
        // The rolled-back frontier event still carries dependencies:
        // without its clock in `depend`, a cut through it can pass the
        // consistency check while missing remote events it happened-after
        // -- the walk then certifies stay-points and enables transitions at
        // cuts that lie on no lattice path (fuzz-found unsound verdicts).
        merge_depend(f, n, event_at(e.sn - 1).vc);
      } else {
        merge_depend(f, n, e.vc);
      }
    }
    const FrontierSlot* f = token.records[record];
    TransitionEntry entry;
    entry.transition_id = tid;
    entry.frontier = record;
    entry.conj.assign(n, ConjunctEval::kTrue);
    const CompiledTransition& ct = prop_->transition(tid);
    bool needs_walk = false;
    for (std::size_t j = 0; j < n; ++j) {
      if (f[j].cut < f[j].depend) {
        needs_walk = true;  // lagging component: must be walked forward
      }
      const bool participates = !ct.local[j].is_true();
      if (participates &&
          !prop_->locally_satisfied(tid, static_cast<int>(j), f[j].gstate)) {
        entry.conj[j] = ConjunctEval::kUnset;
        needs_walk = true;
      }
    }
    if (!needs_walk) {
      // The guard holds at the entry's own cut -- but the transition fires
      // at a *successor* cut (the source state holds after this one). The
      // local successor is covered by the view's own deterministic step;
      // remote successors need one verification step, or the pivot is lost
      // whenever the next local event is inconsistent (design note: the
      // thesis's "enabled transition" handling misses this case). Walk one
      // event on a remote participant (any remote process if the guard is
      // local-only) and let the usual completion rules decide there.
      int j = -1;
      for (int k : ct.participants) {
        if (k != index_) {
          j = k;
          break;
        }
      }
      if (j < 0) j = index_ == 0 ? (n_ > 1 ? 1 : -1) : 0;
      if (j < 0) continue;  // single process: local steps cover everything
      entry.conj[static_cast<std::size_t>(j)] = ConjunctEval::kUnset;
      entry.next_target_process = j;
      entry.next_target_event = f[static_cast<std::size_t>(j)].cut + 1;
    } else {
      // Initial target: first lagging component, else first open conjunct
      // (Alg. 3 lines 12-13).
      for (std::size_t j = 0; j < n; ++j) {
        if (f[j].cut < f[j].depend || entry.conj[j] == ConjunctEval::kUnset) {
          entry.next_target_process = static_cast<int>(j);
          entry.next_target_event = f[j].cut + 1;
          break;
        }
      }
    }
    tids.push_back(tid);
    token.entries.push_back(std::move(entry));
  }

  if (token.entries.empty()) {
    recycle_shell(std::move(shell));
    return;
  }
  }  // walk-mode dispatch

  // Optimization 4.3.2: skip duplicate probes -- the same (state,
  // transitions, beliefs) signature was already probed, either by an
  // outstanding token or by this view's previous probe ("the new event is
  // considered to be an element in the slice being constructed"). Pivot
  // cuts involving *new remote* events are caught by the remote monitors'
  // own probes (Theorem 4's progress-path argument).
  const std::uint64_t sig = probe_signature(gv, tids);
  if (options_.dedupe_probes) {
    if (gv.probe_sig == sig || outstanding_sigs_.count(sig)) {
      recycle_shell(std::move(shell));
      return;
    }
  }

  // A consistent probe forks a copy below; surface a cap breach before any
  // state mutates: the pooled shell goes back, the view never starts
  // waiting, no signature is registered, and nothing is counted as created.
  if (consistent && options_.max_views &&
      views_.size() >= options_.max_views) {
    ++stats_.views_overflowed;
    recycle_shell(std::move(shell));
    throw MonitorOverflow("MonitorProcess: view cap exceeded (fork)");
  }

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
  try {
    DepthGuard guard(dispatch_depth_);
    if (shell->token.parent == index_) {
      handle_returned_token(std::move(shell), now);
    } else {
      process_token(std::move(shell), now);
    }
    merge_similar_views();
    sweep_dead_views();
    check_finished(now);
  } catch (const MonitorOverflow&) {
    flush_staged();  // no-op inside a frame; the frame's wrapper flushes
    throw;
  }
  // No-op while delivered as part of a frame (on_frame holds the depth):
  // the whole frame's responses flush together.
  flush_staged();
}

void MonitorProcess::on_frame(std::unique_ptr<PayloadFrame> frame,
                              double now) {
  stats_.bytes_received += frame->wire_size;
  try {
    // Hold the dispatch depth across all units so every per-unit flush
    // no-ops: responses provoked by any unit batch into the frames this
    // flush_staged() below emits.
    DepthGuard guard(dispatch_depth_);
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
  } catch (const MonitorOverflow&) {
    flush_staged();  // the guard unwound with the unit loop
    throw;
  }
  flush_staged();
  recycle_frame(std::move(frame));
}

void MonitorProcess::process_token(std::unique_ptr<TokenMessage> shell,
                                   double now) {
  Token& token = shell->token;
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
      // base, so only a duplicate-delivered token can still target it: its
      // first copy already walked these events and spawned their pivots.
      // Fail the re-walk's entries instead of replaying history that is
      // gone.
      for (TransitionEntry& entry : token.entries) {
        if (entry.eval == EntryEval::kUnset &&
            entry.next_target_process == index_ &&
            entry.next_target_event < history_base_) {
          entry.eval = EntryEval::kFalse;
        }
      }
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
      // The requested event will never occur: the awaited conjunct can
      // never become true on this walk (Theorem 1).
      for (TransitionEntry& entry : token.entries) {
        if (entry.eval == EntryEval::kUnset &&
            entry.next_target_process == index_ &&
            entry.next_target_event >= history_end()) {
          entry.eval = EntryEval::kFalse;
        }
      }
      if (!route_token(shell, now)) {
        throw std::logic_error(
            "MonitorProcess: token stuck after local termination");
      }
      return;
    }
    apply_event_to_token(token, sn);
    if (route_token(shell, now)) return;
    // Token stays here, now targeting a later local event; keep walking.
  }
}

void MonitorProcess::apply_event_to_token(Token& token, std::uint32_t sn) {
  const Event& e = event_at(sn);
  const std::size_t me = static_cast<std::size_t>(index_);
  const std::size_t n = static_cast<std::size_t>(n_);
  // Entries that step at this event, and those of them that stay here after
  // it (retargeted to sn + 1): the candidates for the fast-forward below.
  SmallVec<std::uint32_t, 32> stepping;
  SmallVec<std::uint32_t, 32> stayed;
  // Last event a fast-forward may cover: one before the next event another
  // live entry awaits here (it joins the walk there), and the history's end.
  std::uint32_t run_end = history_end() - 1;
  HeldRecords held(token.records.size(), 0);
  for (std::size_t idx = 0; idx < token.entries.size(); ++idx) {
    const TransitionEntry& entry = token.entries[idx];
    if (entry.eval == EntryEval::kUnset && entry.next_target_process == index_) {
      if (entry.next_target_event == sn) {
        stepping.push_back(static_cast<std::uint32_t>(idx));
        continue;
      }
      // The token targets the earliest request here, so this entry awaits
      // a later event; were it an earlier one, no run may start.
      run_end =
          std::min(run_end, std::max(entry.next_target_event, sn + 1) - 1);
    }
    held[entry.frontier] = 1;
  }
  // The event moves each stepping record once, whichever entries hold it.
  for (std::uint32_t r : split_records(token, stepping, held)) {
    FrontierSlot* f = token.records[r];
    f[me].cut = sn;
    f[me].gstate = e.letter;
    merge_depend(f, n, e.vc);
  }
  // Entries at one frontier that certify here share one stay-point.
  struct Certified {
    std::uint32_t frontier;
    std::uint32_t stay;
  };
  SmallVec<Certified, 8> certified;
  bool any_true = false;
  for (std::uint32_t idx : stepping) {
    TransitionEntry& entry = token.entries[idx];
    const FrontierSlot* f = token.frontier(entry);
    const CompiledTransition& ct = prop_->transition(entry.transition_id);
    if (!ct.local[me].is_true()) {
      entry.conj[me] =
          prop_->locally_satisfied(entry.transition_id, index_, e.letter)
              ? ConjunctEval::kTrue
              : ConjunctEval::kUnset;
    } else {
      // Non-participant visit (successor verification or consistency
      // repair): nothing to evaluate here.
      entry.conj[me] = ConjunctEval::kTrue;
    }

    // Resolve or retarget (Alg. 4 lines 13-25, with the generalized order
    // check replacing Alg. 5's sibling-only flag rule). Find what still
    // keeps the entry open: a lagging cut component (the frontier depends
    // on events not yet included) or an open conjunct.
    int next = -1;
    for (std::size_t k = 0; k < n; ++k) {
      if (f[k].cut < f[k].depend || entry.conj[k] == ConjunctEval::kUnset) {
        next = static_cast<int>(k);
        break;
      }
    }
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
    if (cut_covers_depend(f, n)) {
      const MonitorTransition* t = prop_->match(ct.from, combined_gstate(f, n));
      if (t && !t->self_loop()) {
        entry.eval = EntryEval::kFalse;
        continue;
      }
      // Certified stay-point: a consistent cut where the path provably can
      // remain at the source state (used to resurrect launchpad views).
      std::uint32_t stay = kNoRecord;
      for (const Certified& c : certified) {
        if (c.frontier == entry.frontier) stay = c.stay;
      }
      if (stay == kNoRecord) {
        // A copy of the frontier; adding it moves the table's slots.
        stay = token.records.add_copy(entry.frontier);
        certified.push_back({entry.frontier, stay});
        f = token.frontier(entry);
      }
      entry.stay = stay;
    }
    // A conjunct re-opens when its process's slice will move.
    if (!ct.local[static_cast<std::size_t>(next)].is_true()) {
      entry.conj[static_cast<std::size_t>(next)] = ConjunctEval::kUnset;
    }
    entry.next_target_process = next;
    entry.next_target_event = f[static_cast<std::size_t>(next)].cut + 1;
    if (next == index_) stayed.push_back(idx);
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
  compact_if_sparse(token);
}

MonitorProcess::StayKind MonitorProcess::stay_kind(
    const FrontierSlot* s, const CompiledTransition& ct, AtomSet others,
    const Event& e) const {
  // One step of the loop above, reduced to its outcome for an entry that
  // stayed at every event since the run began: the entry's cut and
  // gstate off this process are frozen, and its dependency clock after the
  // step is max(depend, e.vc) because clocks grow along the local history.
  const std::size_t me = static_cast<std::size_t>(index_);
  bool consistent = true;
  for (int k = 0; k < n_; ++k) {
    if (k == index_) continue;
    const std::size_t j = static_cast<std::size_t>(k);
    if (std::max(s[j].depend, e.vc[j]) > s[j].cut) {
      if (k < index_) return StayKind::kLeave;  // retargets to k
      consistent = false;
    }
  }
  const bool repair = std::max(s[me].depend, e.vc[me]) > e.sn;
  if (!repair && !(!ct.local[me].is_true() &&
                   !prop_->locally_satisfied(ct.id, index_, e.letter))) {
    return StayKind::kLeave;  // completes or retargets past this process
  }
  if (repair || !consistent) return StayKind::kStay;
  const MonitorTransition* t = prop_->match(ct.from, others | e.letter);
  if (t && !t->self_loop()) return StayKind::kLeave;  // resolves kFalse
  return StayKind::kStayCertified;
}

void MonitorProcess::fast_forward(Token& token,
                                  const SmallVec<std::uint32_t, 32>& stayed,
                                  std::uint32_t first, std::uint32_t last,
                                  bool exclusive) {
  // Find the largest `last` such that every stayer stays at every event of
  // [first, last] (DESIGN.md §6.2). Over such a run route_token keeps the
  // token here with no side effects, so the run collapses into one update
  // per record, bit-identical to walking it event by event.
  struct Run {
    std::uint32_t idx;
    AtomSet others;             ///< frozen frontier letters off this process
    std::uint32_t first_cert;   ///< first certified event scanned (0: none)
    std::uint32_t last_cert;    ///< last certified event scanned (0: none)
  };
  const std::size_t me = static_cast<std::size_t>(index_);
  const std::size_t n = static_cast<std::size_t>(n_);
  SmallVec<Run, 32> runs;
  for (std::uint32_t idx : stayed) {
    const TransitionEntry& entry = token.entries[idx];
    const FrontierSlot* f = token.frontier(entry);
    const CompiledTransition& ct = prop_->transition(entry.transition_id);
    // Staying at first - 1 already showed every conjunct below this process
    // closed; nothing off this process changes while the walk stays here.
    Run run{idx, 0, 0, 0};
    for (std::size_t k = 0; k < n; ++k) {
      if (k != me) run.others |= f[k].gstate;
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

  // Certify each run's stay-point. Entries at one frontier certified at the
  // same event share one stay-point record: the last one made per frontier.
  struct Certified {
    std::uint32_t frontier;
    std::uint32_t sn;
    std::uint32_t stay;
  };
  SmallVec<Certified, 8> certified;
  for (const Run& run : runs) {
    TransitionEntry& entry = token.entries[run.idx];
    const FrontierSlot* f = token.frontier(entry);
    // The stay-point is the largest certified event in the final range.
    // Certification holds on an interval (the cut is consistent here once
    // depend(i) is passed, and off this process until a receive outruns
    // the frozen cut), so this almost always settles at `last` itself.
    std::uint32_t cert = run.last_cert;
    if (cert > last) {
      cert = 0;
      const CompiledTransition& ct = prop_->transition(entry.transition_id);
      for (std::uint32_t sn = last; sn >= run.first_cert; --sn) {
        if (stay_kind(f, ct, run.others, event_at(sn)) ==
            StayKind::kStayCertified) {
          cert = sn;
          break;
        }
      }
    }
    if (cert == 0) continue;
    std::size_t c = 0;
    while (c < certified.size() && certified[c].frontier != entry.frontier) {
      ++c;
    }
    if (c == certified.size() || certified[c].sn != cert) {
      const std::uint32_t stay = token.records.add_copy(entry.frontier);
      FrontierSlot* s = token.records[stay];
      s[me].cut = cert;
      s[me].gstate = event_at(cert).letter;
      if (c == certified.size()) certified.push_back({});
      certified[c] = {entry.frontier, cert, stay};
    }
    entry.stay = certified[c].stay;
  }

  const Event& end = event_at(last);
  SmallVec<std::uint32_t, 32> movers;
  for (const Run& run : runs) {
    movers.push_back(run.idx);
    // conj(me) keeps the value the stay at first - 1 left: open for a
    // participant, true otherwise.
    token.entries[run.idx].next_target_event = last + 1;
  }
  // Unless the movers' records are theirs alone, find those another entry
  // holds; `movers` lists entry indexes in ascending order.
  HeldRecords held(token.records.size(), 0);
  for (std::size_t idx = 0, m = 0; !exclusive && idx < token.entries.size();
       ++idx) {
    if (m < movers.size() && movers[m] == idx) {
      ++m;
    } else {
      held[token.entries[idx].frontier] = 1;
    }
  }
  for (std::uint32_t r : split_records(token, movers, held)) {
    FrontierSlot* f = token.records[r];
    f[me].cut = last;
    f[me].gstate = end.letter;
    merge_depend(f, n, end.vc);
  }
}

namespace detail {

Route choose_route(const Token& token, int self) {
  bool any_true = false;
  bool stay = false;
  const TransitionEntry* third = nullptr;
  for (const TransitionEntry& e : token.entries) {
    if (e.eval == EntryEval::kTrue) any_true = true;
    if (e.eval != EntryEval::kUnset) continue;
    if (e.next_target_process == self) {
      stay = true;
    } else if (e.next_target_process != token.parent &&
               (third == nullptr ||
                e.next_target_event < third->next_target_event)) {
      third = &e;
    }
  }

  Route route{RouteRule::kParent, token.parent, 0};
  if (any_true) {
    route.rule = RouteRule::kEnabled;
  } else if (stay) {
    route = {RouteRule::kStay, self, 0};
  } else if (third != nullptr) {
    route = {RouteRule::kThird, third->next_target_process, 0};
  }

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

}  // namespace detail

bool MonitorProcess::route_token(std::unique_ptr<TokenMessage>& shell,
                                 double now) {
  Token& token = shell->token;
  const detail::Route route = detail::choose_route(token, index_);
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
  compact_if_sparse(token);
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
  if (!gv || gv->dead) {
    // Orphan return: the view vanished, or an earlier copy of this token
    // (duplicate delivery under fault injection) already resolved it. The
    // enabled entries are still verified pivots of real lattice paths, so
    // spawn them anyway -- spawned_memo_ dedupes against the other copy --
    // and re-delivery stays idempotent instead of silently dropping paths.
    bool spawned = false;
    for (const TransitionEntry& entry : token.entries) {
      if (entry.eval != EntryEval::kTrue) continue;
      spawn_view(token, entry, now);
      spawned = true;
    }
    ++stats_.tokens_returned;
    recycle_shell(std::move(shell));
    if (spawned) check_finished(now);
    return;
  }

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
      gv->probe_sig = 0;
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
  // Live entries remain (inconsistency repairs that involve the parent, or
  // further remote visits): re-dispatch.
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
    std::uint64_t h = 1469598103934665603ull;
    h ^= static_cast<std::uint64_t>(prop_->transition(entry.transition_id).to);
    h *= 1099511628211ull;
    for (std::size_t j = 0; j < entry.width(); ++j) {
      h ^= f[j].cut;
      h *= 1099511628211ull;
    }
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
  try {
    DepthGuard guard(dispatch_depth_);
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
    flush_waiting_tokens(now);
    merge_similar_views();
    sweep_dead_views();
    check_finished(now);
  } catch (const MonitorOverflow&) {
    flush_staged();
    throw;
  }
  flush_staged();
}

void MonitorProcess::on_peer_termination(int peer, std::uint32_t last_sn,
                                         double now) {
  {
    DepthGuard guard(dispatch_depth_);
    peer_last_sn_[static_cast<std::size_t>(peer)] = last_sn;
    check_finished(now);
  }
  flush_staged();
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
  {
    DepthGuard guard(dispatch_depth_);
    // The restored floor_epoch_ equals the pre-crash value (stride-1
    // checkpoints cover it), so the bump makes this restart's advertisements
    // strictly newer than anything the dead incarnation sent. Peers replace
    // their stored fold on the first message of the new epoch -- even when
    // the re-advertised floor is LOWER than the pre-crash promise -- and
    // discard reordered stragglers from the old one.
    ++floor_epoch_;
    advertise_floors();
  }
  flush_staged();
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

void MonitorProcess::flush_waiting_tokens(double now) {
  // Local termination is set, so process_token fails every entry waiting
  // past history_end() and routes the token on.
  std::vector<std::unique_ptr<TokenMessage>> parked = std::move(w_tokens_);
  w_tokens_.clear();
  for (std::unique_ptr<TokenMessage>& shell : parked) {
    process_token(std::move(shell), now);
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
      std::uint64_t h = 1469598103934665603ull;
      auto mix = [&h](std::uint64_t x) {
        h ^= x;
        h *= 1099511628211ull;
      };
      mix(static_cast<std::uint64_t>(gv.q));
      for (std::uint32_t x : gv.cut) mix(x + 1);
      auto [it, inserted] = seen.emplace(h, &gv);
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
