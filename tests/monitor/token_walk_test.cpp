// The token walk as a unit (src/monitor/token_walk.hpp): a differential
// check of the fast-forward against the event-by-event walk, the probe's
// admission against its opening, and the opening on hand-built views.
#include "../../src/monitor/token_walk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "../common/random_computation.hpp"
#include "decmon/core/properties.hpp"
#include "decmon/distributed/sim_runtime.hpp"

namespace decmon {
namespace {

using detail::ProbeCandidates;
using detail::Route;
using detail::RouteRule;
using detail::TokenWalk;

/// Process `p`'s events in `comp`, the initial one first.
std::span<const Event> history(const Computation& comp, int p) {
  return {&comp.event(p, 0), comp.num_events(p) + 1};
}

/// Walk `token`, held by process `p`, as MonitorProcess::process_token
/// does, until it leaves `p` or awaits an event `p` does not have. With
/// `cut_window`, every step sees the window end just past the event it
/// applies, so no fast-forward can fire. Returns the events stepped.
int visit(Token& token, const CompiledProperty& prop, const Computation& comp,
          int p, bool cut_window) {
  const std::span<const Event> events = history(comp, p);
  int steps = 0;
  while (true) {
    const Route route = TokenWalk::route(token, p);
    token.next_target_process = route.dest;
    token.next_target_event = route.target_event;
    if (route.rule != RouteRule::kStay) return steps;
    const std::uint32_t sn = route.target_event;
    if (sn >= events.size()) return steps;  // would park
    const std::span<const Event> window =
        cut_window ? events.first(sn + 1) : events;
    TokenWalk(prop, p, window, 0).step(token, sn);
    ++steps;
  }
}

/// The per-entry values of two walks of one token agree. Record indexes
/// may differ (a fast-forward certifies once per run, a step at every
/// consistent event), so slots are compared by value; a stay-point's
/// `depend` is never read and is left out.
void expect_same_entries(const Token& a, const Token& b) {
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t k = 0; k < a.entries.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "entry " << k);
    const TransitionEntry& x = a.entries[k];
    const TransitionEntry& y = b.entries[k];
    EXPECT_EQ(x.eval, y.eval);
    EXPECT_EQ(x.next_target_process, y.next_target_process);
    EXPECT_EQ(x.next_target_event, y.next_target_event);
    ASSERT_EQ(x.width(), y.width());
    const FrontierSlot* fx = a.frontier(x);
    const FrontierSlot* fy = b.frontier(y);
    for (std::size_t j = 0; j < x.width(); ++j) {
      EXPECT_EQ(x.conj[j], y.conj[j]) << "process " << j;
      EXPECT_EQ(fx[j].cut, fy[j].cut) << "process " << j;
      EXPECT_EQ(fx[j].depend, fy[j].depend) << "process " << j;
      EXPECT_EQ(fx[j].gstate, fy[j].gstate) << "process " << j;
    }
    ASSERT_EQ(x.loop_certified(), y.loop_certified());
    if (!x.loop_certified()) continue;
    const FrontierSlot* sx = a.stay(x);
    const FrontierSlot* sy = b.stay(y);
    for (std::size_t j = 0; j < x.width(); ++j) {
      EXPECT_EQ(sx[j].cut, sy[j].cut) << "stay, process " << j;
      EXPECT_EQ(sx[j].gstate, sy[j].gstate) << "stay, process " << j;
    }
  }
}

struct Tally {
  int tokens = 0;
  int skipped = 0;  ///< events the full-window walk fast-forwarded over
};

/// A view in state `q` at a random consistent cut whose component at
/// process `i` is `sn`: each other component starts at a random event no
/// earlier than the causal past of `i`'s event `sn`, and steps back until
/// the cut is consistent (the causal past itself is).
GlobalView random_view(std::mt19937_64& rng, const Computation& comp, int i,
                       std::uint32_t sn, int q) {
  const std::size_t n = static_cast<std::size_t>(comp.num_processes());
  const Event& e = comp.event(i, sn);
  std::vector<std::uint32_t> cut(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t span = comp.num_events(static_cast<int>(j)) - e.vc[j];
    cut[j] = static_cast<int>(j) == i
                 ? sn
                 : e.vc[j] + static_cast<std::uint32_t>(rng() % (span + 1));
  }
  for (bool moved = true; moved;) {
    moved = false;
    for (std::size_t j = 0; j < n; ++j) {
      if (static_cast<int>(j) == i) continue;
      for (std::size_t k = 0; k < n; ++k) {
        while (comp.event(static_cast<int>(j), cut[j]).vc[k] > cut[k]) {
          --cut[j];
          moved = true;
        }
      }
    }
  }
  GlobalView gv;
  gv.q = q;
  for (std::size_t j = 0; j < n; ++j) {
    gv.cut.push_back(cut[j]);
    gv.gstate.push_back(comp.event(static_cast<int>(j), cut[j]).letter);
  }
  return gv;
}

/// For every event `sn` of every process of `comp`, every state and both
/// probe kinds, open into one token the probes of four views at random
/// consistent cuts, after events sn - 3 .. sn, so that its entries await
/// different events. Walk it both ways from process to process until it
/// goes home enabled, parks, or has no live entry; after every visit the
/// two walks must agree.
void differential(const CompiledProperty& prop, const Computation& comp,
                  Tally& tally) {
  std::mt19937_64 rng(7);
  const int states = prop.automaton().num_states();
  for (int i = 0; i < comp.num_processes(); ++i) {
    const TokenWalk walk(prop, i, history(comp, i), 0);
    for (std::uint32_t sn = 1; sn <= comp.num_events(i); ++sn) {
      for (int q = 0; q < states; ++q) {
        for (const bool consistent : {true, false}) {
          SCOPED_TRACE(::testing::Message()
                       << "P" << i << " sn=" << sn << " q=" << q
                       << (consistent ? " at-cut" : " pre-cut"));
          Token full;
          full.parent = i;
          for (std::uint32_t back = std::min(sn - 1, 3u) + 1; back-- > 0;) {
            const int from = (q + static_cast<int>(back)) % states;
            const GlobalView gv = random_view(rng, comp, i, sn - back, from);
            const Event& e = comp.event(i, sn - back);
            ProbeCandidates cands = walk.candidates(
                from, consistent, consistent ? (from + 1) % states : -1);
            walk.admit(cands, gv, e, WalkMode::kExact);
            walk.open(full, cands, gv, e, WalkMode::kExact);
          }
          if (full.entries.empty()) continue;
          ++tally.tokens;
          Token cut = full;
          int at = i;
          for (int hop = 0; hop < 64; ++hop) {
            const int full_steps = visit(full, prop, comp, at, false);
            const int cut_steps = visit(cut, prop, comp, at, true);
            tally.skipped += cut_steps - full_steps;
            expect_same_entries(full, cut);
            ASSERT_EQ(full.next_target_process, cut.next_target_process);
            ASSERT_EQ(full.next_target_event, cut.next_target_event);
            const Route route = TokenWalk::route(full, at);
            const bool live = std::any_of(
                full.entries.begin(), full.entries.end(),
                [](const TransitionEntry& x) {
                  return x.eval == EntryEval::kUnset;
                });
            if (route.rule == RouteRule::kEnabled ||
                route.rule == RouteRule::kStay || !live) {
              break;  // home enabled, parked, or nothing live
            }
            at = route.dest;
          }
        }
      }
    }
  }
}

TEST(TokenWalk, CutWindowWalkMatchesFullWindow) {
  std::mt19937_64 rng(2027);
  Tally tally;
  for (const int n : {2, 3}) {
    AtomRegistry reg = testing::standard_registry(n);
    const std::vector<std::string> suite =
        n == 2 ? testing::property_suite_2() : testing::property_suite_3();
    for (const std::string& text : suite) {
      SCOPED_TRACE(text);
      const SharedProperty art = testing::admit(reg, text);
      for (int c = 0; c < 3; ++c) {
        differential(*property_handle(art),
                     testing::random_computation(rng, n, reg, 10), tally);
      }
    }
  }
  for (paper::Property p : paper::kAllProperties) {
    SCOPED_TRACE(paper::name(p));
    AtomRegistry reg = paper::make_registry(3);
    const SharedProperty art = paper::shared_property(p, 3, reg);
    for (int c = 0; c < 3; ++c) {
      differential(*property_handle(art),
                   testing::random_computation(rng, 3, reg, 12), tally);
    }
  }
  // The comparison means something only if the full-window walks skipped
  // events.
  EXPECT_GT(tally.tokens, 1000);
  EXPECT_GT(tally.skipped, 1000);
}

// -- the probe's admission -------------------------------------------------

struct AdmissionTally {
  int probes = 0;    ///< probes that admitted a candidate
  int dropped = 0;   ///< probes whose admission dropped a candidate
  int entries = 0;
};

/// For every event of every process of `comp`, every state, with and
/// without a second (pre-advance) state, and two views through the event --
/// one at a consistent cut, one whose other components are consistent with
/// the event before it, so a receive can find it inconsistent, as a view's
/// next event does -- the admitted candidates are exactly the entries
/// open() pushes, in order. That equality is what lets the monitor take
/// the probe's signature before building it.
void expect_admitted_opened(const CompiledProperty& prop,
                            const Computation& comp, WalkMode mode,
                            AdmissionTally& tally) {
  std::mt19937_64 rng(11);
  const int states = prop.automaton().num_states();
  const std::size_t n = static_cast<std::size_t>(comp.num_processes());
  for (int i = 0; i < comp.num_processes(); ++i) {
    const TokenWalk walk(prop, i, history(comp, i), 0);
    for (std::uint32_t sn = 1; sn <= comp.num_events(i); ++sn) {
      const Event& e = comp.event(i, sn);
      for (int q = 0; q < states; ++q) {
        for (const bool from_prev : {false, true}) {
          GlobalView gv =
              random_view(rng, comp, i, from_prev ? sn - 1 : sn, q);
          gv.cut[static_cast<std::size_t>(i)] = sn;
          gv.gstate[static_cast<std::size_t>(i)] = e.letter;
          bool consistent = true;
          for (std::size_t j = 0; j < n; ++j) {
            if (static_cast<int>(j) != i && gv.cut[j] < e.vc[j]) {
              consistent = false;
            }
          }
          for (const int extra : {-1, (q + 1) % states}) {
            SCOPED_TRACE(::testing::Message()
                         << "P" << i << " sn=" << sn << " q=" << q
                         << " extra=" << extra
                         << (consistent ? " consistent" : " inconsistent"));
            const ProbeCandidates cands =
                walk.candidates(q, consistent, extra);
            ProbeCandidates admitted = cands;
            walk.admit(admitted, gv, e, mode);
            Token token;
            walk.open(token, admitted, gv, e, mode);
            ASSERT_EQ(token.entries.size(), admitted.size());
            for (std::size_t k = 0; k < admitted.size(); ++k) {
              EXPECT_EQ(token.entries[k].transition_id, admitted[k].tid)
                  << "entry " << k;
            }
            if (!admitted.empty()) ++tally.probes;
            if (admitted.size() < cands.size()) ++tally.dropped;
            tally.entries += static_cast<int>(admitted.size());
          }
        }
      }
    }
  }
}

TEST(TokenWalk, AdmittedCandidatesAreTheOpenedEntries) {
  for (const WalkMode mode : {WalkMode::kExact, WalkMode::kJoinJump}) {
    SCOPED_TRACE(mode == WalkMode::kExact ? "exact" : "joinjump");
    AdmissionTally tally;
    // The paper's properties on the computations of simulated runs.
    for (paper::Property p : paper::kAllProperties) {
      for (const int n : {3, 5}) {
        SCOPED_TRACE(::testing::Message() << paper::name(p) << " n=" << n);
        const AtomRegistry reg = paper::make_registry(n);
        const SharedProperty art = paper::shared_property(p, n, reg);
        SimRuntime runtime(
            generate_trace(paper::experiment_params(p, n, 2015)), &reg);
        runtime.run();
        expect_admitted_opened(*property_handle(art),
                               Computation(runtime.history()), mode, tally);
      }
    }
    // One process: a believed-enabled candidate opens nothing there, since
    // the view's local steps cover every successor.
    std::mt19937_64 rng(2031);
    AtomRegistry reg = testing::standard_registry(1);
    for (const char* text : {"G((P0.p) U (P0.q))", "F(P0.p && P0.q)"}) {
      SCOPED_TRACE(text);
      const SharedProperty art = testing::admit(reg, text);
      for (int c = 0; c < 3; ++c) {
        expect_admitted_opened(*property_handle(art),
                               testing::random_computation(rng, 1, reg, 12),
                               mode, tally);
      }
    }
    EXPECT_GT(tally.probes, 1000);
    EXPECT_GT(tally.dropped, 1000);
    EXPECT_GT(tally.entries, tally.probes);
  }
}

// -- the probe's opening on hand-built views --------------------------------

// F(P0.p && P1.p) over two processes; atoms P0.p = bit 0, P1.p = bit 2.
// Process 0's history: e1 (letter 0, clock [1,0]), then e2, a receive of
// P1's second event (letter P0.p, clock [2,2]).
struct OpeningFixture {
  AtomRegistry reg = paper::make_registry(2);
  std::shared_ptr<const CompiledProperty> prop =
      property_handle(testing::admit(reg, "F(P0.p && P1.p)"));
  std::vector<Event> events;
  int q0 = 0;
  int tid = -1;

  OpeningFixture() {
    events.push_back(event(0, VectorClock{0, 0}, 0));
    events.push_back(event(1, VectorClock{1, 0}, 0));
    events.push_back(event(2, VectorClock{2, 2}, 0b0001));
    q0 = prop->step(prop->initial_state(), 0);
    EXPECT_EQ(prop->outgoing(q0).size(), 1u);
    tid = prop->outgoing(q0).front();
  }

  static Event event(std::uint32_t sn, VectorClock vc, AtomSet letter) {
    Event e;
    e.process = 0;
    e.sn = sn;
    e.vc = std::move(vc);
    e.letter = letter;
    return e;
  }

  GlobalView view(std::vector<std::uint32_t> cut,
                  std::vector<AtomSet> gstate) const {
    GlobalView gv;
    gv.q = q0;
    for (std::uint32_t c : cut) gv.cut.push_back(c);
    for (AtomSet s : gstate) gv.gstate.push_back(s);
    return gv;
  }

  /// Open the probe of `gv` after e2 in `mode`.
  Token open(const GlobalView& gv, bool consistent, WalkMode mode) const {
    const TokenWalk walk(*prop, 0, events, 0);
    ProbeCandidates admitted = walk.candidates(q0, consistent, -1);
    walk.admit(admitted, gv, events[2], mode);
    Token token;
    walk.open(token, admitted, gv, events[2], mode);
    return token;
  }
};

void expect_frontier(const Token& token, const TransitionEntry& entry,
                     std::vector<std::uint32_t> cut,
                     std::vector<std::uint32_t> depend,
                     std::vector<AtomSet> gstate) {
  const FrontierSlot* f = token.frontier(entry);
  for (std::size_t j = 0; j < cut.size(); ++j) {
    EXPECT_EQ(f[j].cut, cut[j]) << "process " << j;
    EXPECT_EQ(f[j].depend, depend[j]) << "process " << j;
    EXPECT_EQ(f[j].gstate, gstate[j]) << "process " << j;
  }
}

TEST(TokenWalk, ExactAtCutOpensAtTheViewsCut) {
  OpeningFixture fx;
  // The view consumed e2 consistently and believes P1 at its second event.
  Token token =
      fx.open(fx.view({2, 2}, {0b0001, 0}), /*consistent=*/true,
              WalkMode::kExact);
  ASSERT_EQ(token.entries.size(), 1u);
  const TransitionEntry& entry = token.entries[0];
  EXPECT_EQ(entry.transition_id, fx.tid);
  EXPECT_EQ(entry.eval, EntryEval::kUnset);
  expect_frontier(token, entry, {2, 2}, {2, 2}, {0b0001, 0});
  EXPECT_EQ(entry.conj[0], ConjunctEval::kTrue);
  EXPECT_EQ(entry.conj[1], ConjunctEval::kUnset);
  EXPECT_EQ(entry.next_target_process, 1);
  EXPECT_EQ(entry.next_target_event, 3u);

  // Believed satisfied at the cut: the transition fires at a successor
  // cut, so one remote step verifies it.
  token = fx.open(fx.view({2, 2}, {0b0001, 0b0100}), true, WalkMode::kExact);
  ASSERT_EQ(token.entries.size(), 1u);
  EXPECT_EQ(token.entries[0].eval, EntryEval::kUnset);
  EXPECT_EQ(token.entries[0].conj[0], ConjunctEval::kTrue);
  EXPECT_EQ(token.entries[0].conj[1], ConjunctEval::kUnset);
  EXPECT_EQ(token.entries[0].next_target_process, 1);
  EXPECT_EQ(token.entries[0].next_target_event, 3u);
}

TEST(TokenWalk, ExactPreCutOpensBeforeTheEvent) {
  OpeningFixture fx;
  // e2 was inconsistent for a view that believes P1 at its first event:
  // the entry starts at the cut before e2, with e1's letter and clock, and
  // its first target is e2 itself.
  const Token token =
      fx.open(fx.view({2, 1}, {0b0001, 0b0100}), /*consistent=*/false,
              WalkMode::kExact);
  ASSERT_EQ(token.entries.size(), 1u);
  const TransitionEntry& entry = token.entries[0];
  expect_frontier(token, entry, {1, 1}, {1, 1}, {0, 0b0100});
  EXPECT_EQ(entry.conj[0], ConjunctEval::kUnset);
  EXPECT_EQ(entry.conj[1], ConjunctEval::kTrue);
  EXPECT_EQ(entry.next_target_process, 0);
  EXPECT_EQ(entry.next_target_event, 2u);
}

TEST(TokenWalk, JoinJumpOpensAtTheJoin) {
  OpeningFixture fx;
  // The join max([2,1], e2.VC = [2,2]) lies past the view's cut, with the
  // view's beliefs and depend == cut.
  Token token = fx.open(fx.view({2, 1}, {0b0001, 0}), /*consistent=*/false,
                        WalkMode::kJoinJump);
  ASSERT_EQ(token.entries.size(), 1u);
  expect_frontier(token, token.entries[0], {2, 2}, {2, 2}, {0b0001, 0});
  EXPECT_EQ(token.entries[0].eval, EntryEval::kUnset);
  EXPECT_EQ(token.entries[0].conj[1], ConjunctEval::kUnset);
  EXPECT_EQ(token.entries[0].next_target_process, 1);
  EXPECT_EQ(token.entries[0].next_target_event, 3u);

  // Believed satisfied at an advanced join: enabled at once.
  token = fx.open(fx.view({2, 1}, {0b0001, 0b0100}), false,
                  WalkMode::kJoinJump);
  ASSERT_EQ(token.entries.size(), 1u);
  EXPECT_EQ(token.entries[0].eval, EntryEval::kTrue);
  EXPECT_EQ(token.entries[0].next_target_process, -1);

  // Believed satisfied at a join equal to the view's cut: the view's own
  // deterministic step takes the transition, so nothing opens.
  token = fx.open(fx.view({2, 2}, {0b0001, 0b0100}), true,
                  WalkMode::kJoinJump);
  EXPECT_TRUE(token.entries.empty());
}

}  // namespace
}  // namespace decmon
