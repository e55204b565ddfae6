// Direct unit tests of one MonitorProcess replica: token creation, routing
// rules, parking, termination flush, probe suppression, statistics. A
// capturing fake network makes every send observable.
#include "decmon/monitor/monitor_process.hpp"

#include <gtest/gtest.h>

#include "../../src/monitor/token_walk.hpp"
#include "../common/random_computation.hpp"
#include "decmon/core/properties.hpp"
#include "decmon/monitor/checkpoint.hpp"
#include "decmon/monitor/decentralized_monitor.hpp"

namespace decmon {
namespace {

class CapturingNetwork : public MonitorNetwork {
 public:
  // The monitor flushes batched frames; flatten them back into one message
  // per unit so the assertions below observe individual tokens and
  // termination signals (frames_seen still counts the actual sends).
  void send(MonitorMessage msg) override {
    if (msg.payload && msg.payload->tag == PayloadFrame::kTag) {
      ++frames_seen;
      std::unique_ptr<PayloadFrame> frame(
          static_cast<PayloadFrame*>(msg.payload.release()));
      for (std::unique_ptr<NetPayload>& unit : frame->units) {
        sent.push_back(MonitorMessage{msg.from, msg.to, std::move(unit)});
      }
      return;
    }
    sent.push_back(std::move(msg));
  }
  double now() const override { return t; }

  std::vector<MonitorMessage> sent;
  int frames_seen = 0;
  double t = 0.0;

  std::vector<Token> tokens_to(int proc, int parent = -1) {
    std::vector<Token> out;
    for (const MonitorMessage& m : sent) {
      if (m.to != proc) continue;
      if (auto* tok = dynamic_cast<TokenMessage*>(m.payload.get())) {
        if (parent >= 0 && tok->token.parent != parent) continue;
        out.push_back(tok->token);
      }
    }
    return out;
  }
  int terminations() const {
    int n = 0;
    for (const MonitorMessage& m : sent) {
      if (dynamic_cast<TerminationMessage*>(m.payload.get())) ++n;
    }
    return n;
  }
};

/// A token in a shell of its own, the form on_token takes.
std::unique_ptr<TokenMessage> shell_of(const Token& token) {
  auto shell = std::make_unique<TokenMessage>();
  shell->token = token;
  return shell;
}

Event make_event(int proc, std::uint32_t sn, VectorClock vc, AtomSet letter,
                 EventType type = EventType::kInternal) {
  Event e;
  e.type = type;
  e.process = proc;
  e.sn = sn;
  e.vc = std::move(vc);
  e.letter = letter;
  return e;
}

/// The synthesized monitor for `formula` over paper::make_registry(n).
std::shared_ptr<const CompiledProperty> compile(
    const std::string& formula, int n, const SynthesisOptions& synth = {}) {
  AtomRegistry reg = paper::make_registry(n);
  return property_handle(testing::admit(reg, formula, synth));
}

struct Fixture {
  std::shared_ptr<const CompiledProperty> prop;
  CapturingNetwork net;

  Fixture(const std::string& formula, int n) : prop(compile(formula, n)) {}
};

// Atoms for n=2: P0.p=bit0, P0.q=bit1, P1.p=bit2, P1.q=bit3.

TEST(MonitorProcessUnit, NoProbeWhenLocallyForbidden) {
  // F(P0.p && P1.p): M0's local p is false, so M0 forbids the transition
  // and sends nothing.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, f.prop, &f.net, {0, 0});
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0), 1.0);
  EXPECT_TRUE(f.net.sent.empty());
  EXPECT_EQ(m.stats().tokens_created, 0u);
}

TEST(MonitorProcessUnit, ProbeSentWhenLocalConjunctHolds) {
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, f.prop, &f.net, {0, 0});
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  auto tokens = f.net.tokens_to(1);
  ASSERT_EQ(tokens.size(), 1u);
  const Token& t = tokens[0];
  EXPECT_EQ(t.parent, 0);
  EXPECT_EQ(t.parent_sn, 1u);
  ASSERT_EQ(t.entries.size(), 1u);
  // The entry asks P1 for its next event.
  EXPECT_EQ(t.next_target_process, 1);
  EXPECT_EQ(t.next_target_event, 1u);
  EXPECT_EQ(m.stats().token_messages_sent, 1u);
}

TEST(MonitorProcessUnit, DuplicateProbesSuppressed) {
  // Two consecutive events with the same letter and state: the second probe
  // is deduplicated (4.3.2) while the first token is outstanding.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, f.prop, &f.net, {0, 0});
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  m.on_local_event(make_event(0, 2, VectorClock{2, 0}, 0b01), 2.0);
  EXPECT_EQ(f.net.tokens_to(1).size(), 1u);
  // With dedup off, the second probe goes out too.
  CapturingNetwork net2;
  MonitorOptions options;
  options.dedupe_probes = false;
  MonitorProcess m2(0, f.prop, &net2, {0, 0}, options);
  m2.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  m2.on_local_event(make_event(0, 2, VectorClock{2, 0}, 0b01), 2.0);
  EXPECT_EQ(net2.tokens_to(1).size(), 2u);
}

TEST(MonitorProcessUnit, MemoisedDuplicateProbesAgainOnceItsTokenReturns) {
  // P0's first p event launches a token; the launchpad waits and its fork
  // copy goes on. The copy's probe at the second p event is a duplicate of
  // that token, and at the third a repeat of that rejection, skipped
  // without being evaluated but still counted as a duplicate. Once the
  // token comes home its signature is no longer outstanding: the same
  // probe at the fourth event is evaluated again and launches a token.
  // That launch's fork copy reuses the storage of the first launchpad,
  // swept once its token returned; it starts with an empty memo, so its
  // probe at a P0.p-false event is evaluated, though the launchpad had
  // rejected the same probe at the initial state.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m0(0, f.prop, &f.net, {0, 0});
  EXPECT_EQ(m0.stats().probes_evaluated, 1u);  // the initial view's probe
  m0.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  EXPECT_EQ(m0.stats().tokens_created, 1u);
  m0.on_local_event(make_event(0, 2, VectorClock{2, 0}, 0b01), 2.0);
  EXPECT_EQ(m0.stats().probes_evaluated, 3u);
  EXPECT_EQ(m0.stats().probes_deduped, 1u);
  m0.on_local_event(make_event(0, 3, VectorClock{3, 0}, 0b01), 3.0);
  EXPECT_EQ(m0.stats().probes_evaluated, 3u);
  EXPECT_EQ(m0.stats().probes_deduped, 2u);

  // P1 never sees p: termination sends the token home with nothing live.
  CapturingNetwork net1;
  MonitorProcess m1(1, f.prop, &net1, {0, 0});
  m1.on_token(shell_of(f.net.tokens_to(1).at(0)), 4.0);
  m1.on_local_termination(5.0);
  const std::vector<Token> home = net1.tokens_to(0, /*parent=*/0);
  ASSERT_EQ(home.size(), 1u);
  m0.on_token(shell_of(home[0]), 6.0);
  EXPECT_EQ(m0.stats().tokens_returned, 1u);

  m0.on_local_event(make_event(0, 4, VectorClock{4, 0}, 0b01), 7.0);
  EXPECT_EQ(m0.stats().probes_evaluated, 4u);
  EXPECT_EQ(m0.stats().probes_deduped, 2u);
  EXPECT_EQ(m0.stats().tokens_created, 2u);
  m0.on_local_event(make_event(0, 5, VectorClock{5, 0}, 0), 8.0);
  EXPECT_EQ(m0.stats().probes_evaluated, 5u);
}

TEST(MonitorProcessUnit, ResurrectedViewStartsWithAnEmptyMemo) {
  // P0.p is false at P0's first event, so the initial view's probe admits
  // nothing, as at its initial state: a repeat, skipped. The receive {2,1}
  // is inconsistent with the view's cut {1,0}; its probe launches a token
  // and no copy. The token comes home certified at the initial cut, where
  // the view resumes and replays both events. The replayed first event
  // repeats the rejection the view had memoised, but the view's beliefs
  // were rewound with it, so it is evaluated again.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m0(0, f.prop, &f.net, {0, 0});
  m0.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0), 1.0);
  EXPECT_EQ(m0.stats().probes_evaluated, 1u);
  m0.on_local_event(
      make_event(0, 2, VectorClock{2, 1}, 0b01, EventType::kReceive), 2.0);
  EXPECT_EQ(m0.stats().probes_evaluated, 2u);
  ASSERT_EQ(m0.stats().tokens_created, 1u);
  Token probe = f.net.tokens_to(1).at(0);
  ASSERT_EQ(probe.entries.size(), 1u);
  probe.entries[0].stay = probe.records.add(2);  // certified at {0,0}

  CapturingNetwork net1;
  MonitorProcess m1(1, f.prop, &net1, {0, 0});
  m1.on_token(shell_of(probe), 3.0);
  m1.on_local_termination(4.0);
  const std::vector<Token> home = net1.tokens_to(0, /*parent=*/0);
  ASSERT_EQ(home.size(), 1u);
  m0.on_token(shell_of(home[0]), 5.0);
  EXPECT_EQ(m0.stats().tokens_returned, 1u);
  // Both replayed probes are evaluated; the second launches again.
  EXPECT_EQ(m0.stats().probes_evaluated, 4u);
  EXPECT_EQ(m0.stats().tokens_created, 2u);
}

TEST(MonitorProcessUnit, RestoredMonitorStartsWithEmptyMemos) {
  // As in MemoisedDuplicateProbesAgainOnceItsTokenReturns, the fork copy
  // holds a memoised duplicate after three p events. A checkpoint does not
  // carry memos: restored into the same monitor, or into a fresh one whose
  // initial view memoised its own rejection, the next probe is evaluated,
  // and is still a duplicate of the restored outstanding token.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m0(0, f.prop, &f.net, {0, 0});
  for (std::uint32_t sn = 1; sn <= 3; ++sn) {
    m0.on_local_event(make_event(0, sn, VectorClock{sn, 0}, 0b01), sn);
  }
  ASSERT_EQ(m0.stats().probes_evaluated, 3u);
  ASSERT_EQ(m0.stats().probes_deduped, 2u);
  const std::vector<std::uint8_t> blob = checkpoint_monitor(m0);

  CapturingNetwork net2;
  MonitorProcess fresh(0, f.prop, &net2, {0, 0});
  for (MonitorProcess* m : {&m0, &fresh}) {
    restore_monitor(*m, blob);
    const MonitorStats before = m->stats();
    m->on_local_event(make_event(0, 4, VectorClock{4, 0}, 0b01), 4.0);
    EXPECT_EQ(m->stats().probes_evaluated, before.probes_evaluated + 1);
    EXPECT_EQ(m->stats().probes_deduped, before.probes_deduped + 1);
    EXPECT_EQ(m->stats().tokens_created, before.tokens_created);
  }
}

TEST(MonitorProcessUnit, JoinJumpAndOneProcessEvaluateEveryProbe) {
  // The memo keys only what admission reads under kExact with more than
  // one process; kJoinJump and a single process read the view's frontier
  // too, so they evaluate every probe. Each run below has one probing
  // view, so it makes 1 + 5 probes: the initial one and one per event.
  auto run = [](const std::string& formula, int n, WalkMode mode,
                AtomSet letter) {
    Fixture f(formula, n);
    MonitorOptions options;
    options.walk_mode = mode;
    MonitorProcess m(0, f.prop, &f.net,
                     std::vector<AtomSet>(static_cast<std::size_t>(n), 0),
                     options);
    VectorClock vc(static_cast<std::size_t>(n));
    for (std::uint32_t sn = 1; sn <= 5; ++sn) {
      vc[0] = sn;
      m.on_local_event(make_event(0, sn, vc, letter), sn);
    }
    // One launch at most; its launchpad waits and no longer probes.
    EXPECT_EQ(m.num_views() - m.stats().tokens_created, 1u);
    return m.stats().probes_evaluated;
  };
  // Two processes: P0.p at every event makes duplicates after the first
  // launch; without it every probe admits nothing.
  for (AtomSet letter : {AtomSet{0b01}, AtomSet{0}}) {
    EXPECT_EQ(run("F(P0.p && P1.p)", 2, WalkMode::kJoinJump, letter), 6u);
    EXPECT_LT(run("F(P0.p && P1.p)", 2, WalkMode::kExact, letter), 6u);
  }
  for (WalkMode mode : {WalkMode::kExact, WalkMode::kJoinJump}) {
    EXPECT_EQ(run("F(P0.p)", 1, mode, 0), 6u);
  }
}

TEST(MonitorProcessUnit, VisitingTokenWalksHistoryAndAnswers) {
  // M1 receives a token from M0 asking for P1.p; the satisfying event is
  // already in M1's history, so the token returns immediately.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m0(0, f.prop, &f.net, {0, 0});
  m0.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  Token probe = f.net.tokens_to(1).at(0);

  CapturingNetwork net1;
  MonitorProcess m1(1, f.prop, &net1, {0, 0});
  m1.on_local_event(make_event(1, 1, VectorClock{0, 1}, 0b100), 1.5);
  m1.on_token(shell_of(probe), 2.0);
  // Filter to the reply: M1 also launches its own probe towards P0.
  auto replies = net1.tokens_to(0, /*parent=*/0);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].entries.at(0).eval, EntryEval::kTrue);
  ASSERT_EQ(replies[0].entries.at(0).width(), 2u);
  EXPECT_EQ(replies[0].frontier(replies[0].entries.at(0))[0].cut, 1u);
  EXPECT_EQ(replies[0].frontier(replies[0].entries.at(0))[1].cut, 1u);
}

TEST(MonitorProcessUnit, VisitingTokenParksForFutureEvent) {
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m0(0, f.prop, &f.net, {0, 0});
  m0.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  Token probe = f.net.tokens_to(1).at(0);

  CapturingNetwork net1;
  MonitorProcess m1(1, f.prop, &net1, {0, 0});
  m1.on_token(shell_of(probe), 2.0);  // P1 has no events yet
  EXPECT_EQ(m1.num_waiting_tokens(), 1u);
  EXPECT_TRUE(net1.tokens_to(0).empty());
  // The event arrives: the token wakes and answers.
  m1.on_local_event(make_event(1, 1, VectorClock{0, 1}, 0b100), 3.0);
  EXPECT_EQ(m1.num_waiting_tokens(), 0u);
  ASSERT_EQ(net1.tokens_to(0, /*parent=*/0).size(), 1u);
  EXPECT_EQ(net1.tokens_to(0, 0).at(0).entries.at(0).eval, EntryEval::kTrue);
}

TEST(MonitorProcessUnit, TerminationFlushesParkedTokens) {
  // Theorem 1 / Lemma 1: the awaited event never happens; termination sends
  // the token home with the entry disabled. A disabled entry without a
  // certified stay-point is dead and does not travel, so the token arrives
  // with nothing live and nothing enabled.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m0(0, f.prop, &f.net, {0, 0});
  m0.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  Token probe = f.net.tokens_to(1).at(0);

  CapturingNetwork net1;
  MonitorProcess m1(1, f.prop, &net1, {0, 0});
  m1.on_token(shell_of(probe), 2.0);
  ASSERT_EQ(m1.num_waiting_tokens(), 1u);
  m1.on_local_termination(3.0);
  EXPECT_EQ(m1.num_waiting_tokens(), 0u);
  const std::vector<Token> home = net1.tokens_to(0, /*parent=*/0);
  ASSERT_EQ(home.size(), 1u);
  for (const TransitionEntry& e : home[0].entries) {
    EXPECT_NE(e.eval, EntryEval::kUnset);
    EXPECT_NE(e.eval, EntryEval::kTrue);
  }
  EXPECT_EQ(net1.terminations(), 1);
}

TEST(MonitorProcessUnit, OnlyCertifiedDisabledEntriesTravel) {
  // P0's receive {1,1} is inconsistent with its view's cut {0,0}, so the
  // launchpad forks no copy and waits for its token. At P1 the walk never
  // finds the event it awaits, and termination disables every entry. Of
  // two disabled entries, the one with a certified stay-point rides home
  // and resurrects the launchpad there (it probes again); the uncertified
  // one is dropped, and a token with nothing certified quarantines the
  // launchpad instead.
  auto run = [](bool certify) {
    Fixture f("F(P0.p && P1.p)", 2);
    MonitorProcess m0(0, f.prop, &f.net, {0, 0});
    m0.on_local_event(
        make_event(0, 1, VectorClock{1, 1}, 0b01, EventType::kReceive), 1.0);
    EXPECT_EQ(m0.stats().tokens_created, 1u);
    Token probe = f.net.tokens_to(1).at(0);
    EXPECT_EQ(probe.entries.size(), 1u);
    if (certify) {
      // The same walk, certified at the initial cut {0,0}.
      TransitionEntry certified = probe.entries.at(0);
      certified.stay = probe.records.add(certified.width());
      probe.entries.push_back(certified);
    }

    CapturingNetwork net1;
    MonitorProcess m1(1, f.prop, &net1, {0, 0});
    m1.on_token(shell_of(probe), 2.0);
    EXPECT_EQ(m1.num_waiting_tokens(), 1u);
    m1.on_local_termination(3.0);
    const std::vector<Token> home = net1.tokens_to(0, /*parent=*/0);
    EXPECT_EQ(home.size(), 1u);
    if (home.empty()) return std::uint64_t{0};
    EXPECT_EQ(home[0].entries.size(), certify ? 1u : 0u);
    for (const TransitionEntry& e : home[0].entries) {
      EXPECT_EQ(e.eval, EntryEval::kFalse);
      EXPECT_TRUE(e.loop_certified());
      if (!e.loop_certified()) continue;
      EXPECT_EQ(home[0].stay(e)[0].cut, 0u);
      EXPECT_EQ(home[0].stay(e)[1].cut, 0u);
    }
    m0.on_token(shell_of(home[0]), 4.0);
    EXPECT_EQ(m0.stats().tokens_returned, 1u);
    return m0.stats().tokens_created;
  };
  EXPECT_EQ(run(/*certify=*/true), 2u);   // resurrected: probes again
  EXPECT_EQ(run(/*certify=*/false), 1u);  // quarantined: never probes again
}

TEST(MonitorProcessUnit, OneCertifiedDisabledEntryTravels) {
  // Three disabled entries with stay-points {1,0}, {0,1} and {0,0}: the
  // home monitor resurrects at the first of the largest loop_cut_total, so
  // only that entry rides home. {1,0} and {0,1} tie; keeping the later
  // tied entry would move the resurrection cut.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m0(0, f.prop, &f.net, {0, 0});
  m0.on_local_event(
      make_event(0, 1, VectorClock{1, 1}, 0b01, EventType::kReceive), 1.0);
  Token probe = f.net.tokens_to(1).at(0);
  ASSERT_EQ(probe.entries.size(), 1u);
  const std::uint32_t stays[3][2] = {{1, 0}, {0, 1}, {0, 0}};
  for (const auto& cut : stays) {
    TransitionEntry certified = probe.entries.at(0);
    certified.stay = probe.records.add(2);
    FrontierSlot* s = probe.records[certified.stay];
    s[0].cut = cut[0];
    s[1].cut = cut[1];
    probe.entries.push_back(certified);
  }

  CapturingNetwork net1;
  MonitorProcess m1(1, f.prop, &net1, {0, 0});
  m1.on_token(shell_of(probe), 2.0);
  m1.on_local_termination(3.0);
  const std::vector<Token> home = net1.tokens_to(0, /*parent=*/0);
  ASSERT_EQ(home.size(), 1u);
  ASSERT_EQ(home[0].entries.size(), 1u);
  const TransitionEntry& kept = home[0].entries[0];
  EXPECT_EQ(kept.eval, EntryEval::kFalse);
  ASSERT_TRUE(kept.loop_certified());
  EXPECT_EQ(home[0].stay(kept)[0].cut, 1u);
  EXPECT_EQ(home[0].stay(kept)[1].cut, 0u);
}

TEST(MonitorProcessUnit, ReturnedEnabledTokenSpawnsAndDeclares) {
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m0(0, f.prop, &f.net, {0, 0});
  m0.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  Token probe = f.net.tokens_to(1).at(0);
  // Simulate M1's answer: the entry enabled at cut {1,1}.
  FrontierSlot* cut = probe.frontier(probe.entries[0]);
  cut[0].cut = 1;
  cut[1].cut = 1;
  cut[0].gstate = 0b01;
  cut[1].gstate = 0b100;
  probe.entries[0].conj[0] = ConjunctEval::kTrue;
  probe.entries[0].conj[1] = ConjunctEval::kTrue;
  probe.entries[0].eval = EntryEval::kTrue;
  probe.next_target_process = 0;
  m0.on_token(shell_of(probe), 3.0);
  EXPECT_TRUE(m0.declared().count(Verdict::kTrue));
  EXPECT_TRUE(m0.verdicts().count(Verdict::kTrue));
}

TEST(DecentralizedMonitorInput, TakesFramesOnly) {
  // Monitors send frames and every transport delivers frames, so a bare
  // token, termination or floor message is a caller error and changes
  // nothing; the same unit inside a one-unit frame is dispatched.
  Fixture f("F(P0.p && P1.p)", 2);
  DecentralizedMonitor dm(f.prop, &f.net, {0, 0});
  MonitorProcess& m1 = dm.monitor(1);
  // P1.p never holds, so M1 never probes on its own events.
  dm.on_local_event(1, make_event(1, 1, VectorClock{0, 1}, 0), 1.0);
  dm.on_local_event(1, make_event(1, 2, VectorClock{0, 2}, 0), 1.1);
  dm.on_local_event(0, make_event(0, 1, VectorClock{1, 0}, 0b01), 1.2);
  const Token probe = f.net.tokens_to(1).at(0);

  auto floor = [] {
    auto unit = std::make_unique<HistoryFloorMessage>();
    unit->process = 0;
    unit->floor = 2;
    return unit;
  };
  auto termination = [] {
    auto unit = std::make_unique<TerminationMessage>();
    unit->process = 0;
    unit->last_sn = 1;
    return unit;
  };
  auto frame_of = [](std::unique_ptr<NetPayload> unit) {
    auto frame = std::make_unique<PayloadFrame>();
    frame->units.push_back(std::move(unit));
    return frame;
  };

  EXPECT_EQ(m1.trim_bound(), 0u);  // silent peer pins the bound at 0
  EXPECT_THROW(dm.on_monitor_message({0, 1, floor()}, 2.0),
               std::invalid_argument);
  EXPECT_EQ(m1.trim_bound(), 0u);
  dm.on_monitor_message({0, 1, frame_of(floor())}, 2.0);
  EXPECT_EQ(m1.trim_bound(), 2u);

  // The probe walks M1's two events and parks for a third.
  EXPECT_THROW(dm.on_monitor_message({0, 1, shell_of(probe)}, 3.0),
               std::invalid_argument);
  EXPECT_EQ(m1.num_waiting_tokens(), 0u);
  dm.on_monitor_message({0, 1, frame_of(shell_of(probe))}, 3.0);
  EXPECT_EQ(m1.num_waiting_tokens(), 1u);

  // M1 finishes once it and its only peer have terminated.
  dm.on_local_termination(1, 4.0);
  EXPECT_EQ(m1.num_waiting_tokens(), 0u);
  EXPECT_THROW(dm.on_monitor_message({0, 1, termination()}, 5.0),
               std::invalid_argument);
  EXPECT_FALSE(m1.finished());
  dm.on_monitor_message({0, 1, frame_of(termination())}, 5.0);
  EXPECT_TRUE(m1.finished());

  EXPECT_THROW(dm.on_monitor_message({0, 1, nullptr}, 6.0),
               std::invalid_argument);
}

TEST(MonitorProcessUnit, SettledStateProbesPruned) {
  // G F (p0 && p1): no finite trace ever decides it. Minimization would
  // collapse the monitor to one state; an *unminimized* monitor keeps
  // several '?' states with outgoing transitions between them -- all
  // settled, so the 7.2.2 pruning drops every probe.
  SynthesisOptions synth;
  synth.minimize = false;
  const auto prop = compile("G(F(P0.p && P1.p))", 2, synth);
  ASSERT_GT(prop->automaton().num_states(), 1);
  for (int q = 0; q < prop->automaton().num_states(); ++q) {
    EXPECT_TRUE(prop->verdict_settled(q));
  }

  CapturingNetwork net;
  MonitorProcess m(0, prop, &net, {0, 0});
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  m.on_local_event(make_event(0, 2, VectorClock{2, 0}, 0b00), 2.0);
  EXPECT_EQ(m.stats().tokens_created, 0u);
  EXPECT_TRUE(net.sent.empty());
}

TEST(MonitorProcessUnit, FinishesAfterAllTermination) {
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, f.prop, &f.net, {0, 0});
  EXPECT_FALSE(m.finished());
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0), 1.0);
  m.on_local_termination(2.0);
  EXPECT_FALSE(m.finished());  // peer still running
  m.on_peer_termination(1, 0, 3.0);
  EXPECT_TRUE(m.finished());
  EXPECT_DOUBLE_EQ(m.stats().finish_time, 3.0);
}

TEST(MonitorProcessUnit, RejectsOutOfOrderEvents) {
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, f.prop, &f.net, {0, 0});
  EXPECT_THROW(
      m.on_local_event(make_event(0, 5, VectorClock{5, 0}, 0), 1.0),
      std::logic_error);
}

TEST(MonitorProcessUnit, ImmediateVerdictAtInitialState) {
  // G(P0.p && P1.p) with an all-false initial state: violated at INIT.
  Fixture f("G(P0.p && P1.p)", 2);
  MonitorProcess m(0, f.prop, &f.net, {0, 0});
  EXPECT_TRUE(m.declared().count(Verdict::kFalse));
}

TEST(MonitorProcessUnit, VerdictCallbackFires) {
  Fixture f("F(P0.p)", 2);
  MonitorProcess m(0, f.prop, &f.net, {0, 0});
  Verdict seen = Verdict::kUnknown;
  double at = -1;
  m.set_verdict_callback([&](Verdict v, double now) {
    seen = v;
    at = now;
  });
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 4.5);
  EXPECT_EQ(seen, Verdict::kTrue);
  EXPECT_DOUBLE_EQ(at, 4.5);
}

TEST(MonitorProcessUnit, EventsQueueBehindOutstandingToken) {
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, f.prop, &f.net, {0, 0});
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  ASSERT_EQ(f.net.tokens_to(1).size(), 1u);
  // While the token is away, further events are delayed for the launchpad
  // view (its forked copy keeps processing them).
  m.on_local_event(make_event(0, 2, VectorClock{2, 0}, 0b00), 2.0);
  m.on_local_event(make_event(0, 3, VectorClock{3, 0}, 0b00), 3.0);
  EXPECT_GT(m.stats().events_delayed, 0u);
}

// ---------------------------------------------------------------------------
// Streaming-GC floor fold under crash epochs (DESIGN.md §13). The fold is
// observable through trim_bound(): the per-peer slot is one of its minima.
// ---------------------------------------------------------------------------

/// Count and inspect the HistoryFloorMessage units a monitor sent.
std::vector<HistoryFloorMessage> floors_sent(const CapturingNetwork& net) {
  std::vector<HistoryFloorMessage> out;
  for (const MonitorMessage& m : net.sent) {
    if (auto* f = dynamic_cast<HistoryFloorMessage*>(m.payload.get())) {
      out.push_back(*f);
    }
  }
  return out;
}

TEST(MonitorProcessUnit, FloorFoldMaxesWithinAnEpoch) {
  // Duplicated and reordered gossip within one epoch is absorbed by the
  // max; the fold never regresses without an epoch bump.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, f.prop, &f.net, {0, 0});
  for (std::uint32_t sn = 1; sn <= 8; ++sn) {
    m.on_local_event(make_event(0, sn, VectorClock{sn, 0}, 0), double(sn));
  }
  EXPECT_EQ(m.trim_bound(), 0u);  // silent peer pins the bound at 0

  m.on_history_floor(1, 3, /*epoch=*/0, 9.0);
  EXPECT_EQ(m.trim_bound(), 3u);
  m.on_history_floor(1, 2, 0, 9.1);  // reordered stale value: absorbed
  EXPECT_EQ(m.trim_bound(), 3u);
  m.on_history_floor(1, 3, 0, 9.2);  // exact duplicate: no-op
  EXPECT_EQ(m.trim_bound(), 3u);
  m.on_history_floor(1, 5, 0, 9.3);
  EXPECT_EQ(m.trim_bound(), 5u);
}

TEST(MonitorProcessUnit, FloorEpochBumpReplacesEvenDownward) {
  // A higher epoch means the peer restarted from a checkpoint: its
  // re-advertised floor REPLACES the stored promise, the one sanctioned
  // regression. Stragglers from the dead epoch are then ignored no matter
  // how they reorder with the resync.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, f.prop, &f.net, {0, 0});
  for (std::uint32_t sn = 1; sn <= 8; ++sn) {
    m.on_local_event(make_event(0, sn, VectorClock{sn, 0}, 0), double(sn));
  }
  m.on_history_floor(1, 5, /*epoch=*/0, 9.0);
  EXPECT_EQ(m.trim_bound(), 5u);

  m.on_history_floor(1, 1, 1, 9.1);  // crash rewind: clamp below the promise
  EXPECT_EQ(m.trim_bound(), 1u);
  m.on_history_floor(1, 4, 0, 9.2);  // pre-crash straggler, reordered in
  EXPECT_EQ(m.trim_bound(), 1u);
  m.on_history_floor(1, 3, 1, 9.3);  // new epoch resumes the monotone fold
  EXPECT_EQ(m.trim_bound(), 3u);
  m.on_history_floor(1, 0, 2, 9.4);  // second crash, rewound to the origin
  EXPECT_EQ(m.trim_bound(), 0u);
}

TEST(MonitorProcessUnit, FloorFromHostileSenderIsIgnored) {
  // The floor handler sits on the decode path: out-of-range and self
  // senders must be dropped, not trusted or crashed on.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, f.prop, &f.net, {0, 0});
  for (std::uint32_t sn = 1; sn <= 4; ++sn) {
    m.on_local_event(make_event(0, sn, VectorClock{sn, 0}, 0), double(sn));
  }
  m.on_history_floor(1, 2, 0, 5.0);
  m.on_history_floor(-1, 9, 9, 5.1);
  m.on_history_floor(0, 9, 9, 5.2);  // self
  m.on_history_floor(7, 9, 9, 5.3);  // out of range
  EXPECT_EQ(m.trim_bound(), 2u);
}

TEST(MonitorProcessUnit, ResyncBumpsEpochAndReAdvertises) {
  // resync_floors is the recovery half of the handshake: each call stamps a
  // strictly higher epoch on freshly advertised floors, so receivers can
  // tell a post-restore advertisement from a pre-crash straggler.
  const auto prop = compile("F(P0.p && P1.p)", 2);
  CapturingNetwork net;
  MonitorOptions options;
  options.gc_interval = 1000;  // manual sweeps only
  MonitorProcess m(0, prop, &net, {0, 0}, options);
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0), 1.0);

  m.resync_floors(2.0);
  m.resync_floors(3.0);
  const auto sent = floors_sent(net);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0].process, 0);
  EXPECT_EQ(sent[0].epoch, 1u);
  EXPECT_EQ(sent[1].epoch, 2u);
  EXPECT_EQ(m.stats().resync_floors, 2u);

  // Outside the streaming posture the handshake is a no-op (there is no
  // window to resync, and goldens must stay silent).
  CapturingNetwork net2;
  MonitorProcess plain(0, prop, &net2, {0, 0});
  plain.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0), 1.0);
  plain.resync_floors(2.0);
  EXPECT_TRUE(floors_sent(net2).empty());
  EXPECT_EQ(plain.stats().resync_floors, 0u);
}

TEST(MonitorProcessUnit, ResyncFloorBelowTrimmedBaseBlocksFutureTrims) {
  // The crash×GC corner: a peer restores below our already-trimmed base and
  // re-advertises the rewound floor. We cannot un-trim -- the below-base
  // guard covers re-walks into the gone prefix -- but the clamp must block
  // all further trimming until the peer's fold catches back up.
  const auto prop = compile("F(P0.p && P1.p)", 2);
  CapturingNetwork net;
  MonitorOptions options;
  options.gc_interval = 1000;
  MonitorProcess m(0, prop, &net, {0, 0}, options);
  for (std::uint32_t sn = 1; sn <= 8; ++sn) {
    m.on_local_event(make_event(0, sn, VectorClock{sn, 0}, 0), double(sn));
  }
  m.on_history_floor(1, 5, /*epoch=*/0, 9.0);
  m.gc_sweep(9.5);
  ASSERT_EQ(m.history_base(), 5u);

  // The peer crashed and rewound below our base.
  m.on_history_floor(1, 2, 1, 10.0);
  EXPECT_EQ(m.trim_bound(), 2u);
  m.gc_sweep(10.5);  // must not trim (bound < base) and must not throw
  EXPECT_EQ(m.history_base(), 5u);

  // The rewound peer makes progress again; trimming resumes past the base.
  m.on_history_floor(1, 7, 1, 11.0);
  m.gc_sweep(11.5);
  EXPECT_EQ(m.history_base(), 7u);
  EXPECT_EQ(m.history_end(), 9u);  // initial state + 8 events
}

TEST(MonitorProcessUnit, RoutingRulesOnHandBuiltTokens) {
  // SendToNextProcess at process 1 for a token whose parent is process 0.
  // Each entry is (eval, target process, target event).
  struct Spec {
    EntryEval eval;
    int process;
    std::uint32_t event;
  };
  struct Row {
    const char* name;
    std::vector<Spec> entries;
    detail::RouteRule rule;
    int dest;
    std::uint32_t target_event;
  };
  constexpr EntryEval kLive = EntryEval::kUnset;
  constexpr EntryEval kFalse = EntryEval::kFalse;
  using R = detail::RouteRule;
  const std::vector<Row> rows = {
      {"enabled entry -> parent",
       {{kLive, 1, 3}, {EntryEval::kTrue, 2, 1}, {kLive, 0, 6}},
       R::kEnabled, 0, 6},
      {"a live entry here -> stay",
       {{kLive, 2, 1}, {kLive, 1, 8}, {kLive, 1, 5}},
       R::kStay, 1, 5},
      {"two third processes -> the lower target event",
       {{kLive, 0, 11}, {kLive, 2, 9}, {kLive, 3, 6}, {kLive, 3, 4}},
       R::kThird, 3, 4},
      {"parent awaited below a third process -> parent",
       {{kLive, 2, 6}, {kLive, 0, 9}, {kLive, 0, 3}},
       R::kParent, 0, 3},
      {"a third process awaited below the parent -> there",
       {{kLive, 0, 5}, {kLive, 2, 4}, {kFalse, 3, 1}},
       R::kThird, 2, 4},
      {"parent and a third process tied -> the first entry",
       {{kLive, 0, 4}, {kLive, 2, 4}},
       R::kParent, 0, 4},
      {"a third process and the parent tied -> the first entry",
       {{kLive, 2, 4}, {kLive, 0, 4}},
       R::kThird, 2, 4},
      {"target events compare unsigned",
       {{kLive, 2, 0x80000000u}, {kLive, 3, 7}},
       R::kThird, 3, 7},
      {"a tie -> the first entry",
       {{kLive, 3, 4}, {kLive, 2, 4}, {kFalse, 4, 1}},
       R::kThird, 3, 4},
      {"only the parent targeted -> parent",
       {{kFalse, 2, 1}, {kLive, 0, 7}},
       R::kParent, 0, 7},
      {"none live -> parent",
       {{kFalse, 2, 3}, {kFalse, 1, 2}},
       R::kParent, 0, 0},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    Token token;
    token.parent = 0;
    for (const Spec& spec : row.entries) {
      TransitionEntry& e = token.add_entry(5);
      e.eval = spec.eval;
      e.next_target_process = spec.process;
      e.next_target_event = spec.event;
    }
    const detail::Route route = detail::TokenWalk::route(token, 1);
    EXPECT_EQ(route.rule, row.rule);
    EXPECT_EQ(route.dest, row.dest);
    EXPECT_EQ(route.target_event, row.target_event);
  }
}

TEST(MonitorProcessUnit, StatsAggregate) {
  MonitorStats a;
  a.tokens_created = 3;
  a.global_views_created = 5;
  a.max_pending = 7;
  MonitorStats b;
  b.tokens_created = 2;
  b.global_views_created = 1;
  b.max_pending = 4;
  b.finish_time = 9.0;
  b.third_process_hops = 4;
  b.tokens_parked = 6;
  b.probes_evaluated = 8;
  a += b;
  EXPECT_EQ(a.tokens_created, 5u);
  EXPECT_EQ(a.third_process_hops, 4u);
  EXPECT_EQ(a.tokens_parked, 6u);
  EXPECT_EQ(a.probes_evaluated, 8u);
  EXPECT_EQ(a.global_views_created, 6u);
  EXPECT_EQ(a.max_pending, 7u);
  EXPECT_DOUBLE_EQ(a.finish_time, 9.0);
  EXPECT_NE(a.to_string().find("tokens=5"), std::string::npos);
}

}  // namespace
}  // namespace decmon
