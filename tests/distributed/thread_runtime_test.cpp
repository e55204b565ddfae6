#include "decmon/distributed/thread_runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "../common/random_computation.hpp"
#include "decmon/automata/ltl3_monitor.hpp"
#include "decmon/core/properties.hpp"
#include "decmon/distributed/faulty_network.hpp"
#include "decmon/lattice/computation.hpp"
#include "decmon/lattice/oracle.hpp"
#include "decmon/ltl/parser.hpp"
#include "decmon/monitor/decentralized_monitor.hpp"
#include "decmon/monitor/token.hpp"

namespace decmon {
namespace {

TraceParams small_params(int n, std::uint64_t seed = 3) {
  TraceParams p;
  p.num_processes = n;
  p.internal_events = 6;
  p.seed = seed;
  return p;
}

ThreadConfig fast_config() {
  ThreadConfig c;
  c.time_scale = 0.0005;  // 3 s trace waits -> 1.5 ms wall
  return c;
}

TEST(ThreadRuntime, RunsToQuiescenceWithoutMonitors) {
  AtomRegistry reg = paper::make_registry(3);
  SystemTrace trace = generate_trace(small_params(3));
  ThreadRuntime rt(trace, &reg, fast_config());
  rt.run();
  EXPECT_EQ(rt.program_events(),
            static_cast<std::uint64_t>(trace.total_events()));
}

TEST(ThreadRuntime, HistoryIsAValidComputation) {
  AtomRegistry reg = paper::make_registry(3);
  SystemTrace trace = generate_trace(small_params(3));
  ThreadRuntime rt(trace, &reg, fast_config());
  rt.run();
  Computation comp(rt.history());
  EXPECT_TRUE(comp.consistent(comp.top()));
  for (const auto& hist : rt.history()) {
    for (std::size_t i = 1; i < hist.size(); ++i) {
      EXPECT_TRUE(hist[i - 1].vc.happened_before(hist[i].vc));
    }
  }
}

TEST(ThreadRuntime, MonitorsFinishAndSatisfyContract) {
  // Full end-to-end under real threads: monitors drain, and the verdict set
  // satisfies the contract against the oracle of the *recorded* history
  // (thread schedules vary run to run; the oracle is recomputed per run).
  for (int round = 0; round < 3; ++round) {
    AtomRegistry reg = paper::make_registry(3);
    const SharedProperty art =
        testing::admit(reg, "G((P0.p) U (P1.p && P2.p))");
    SystemTrace trace = generate_trace(
        small_params(3, 100 + static_cast<std::uint64_t>(round)));

    ThreadRuntime rt(trace, &reg, fast_config());
    DecentralizedMonitor dm(property_handle(art), &rt,
                            initial_letters_of(reg, rt.initial_states()));
    rt.set_hooks(&dm);
    rt.run();

    EXPECT_TRUE(dm.all_finished()) << "round " << round;
    Computation comp(rt.history());
    OracleResult oracle = oracle_evaluate(comp, art->automaton());
    SystemVerdict v = dm.result();
    for (Verdict x : oracle.verdicts) {
      EXPECT_TRUE(v.verdicts.count(x)) << "round " << round;
    }
    for (Verdict x : v.verdicts) {
      if (x != Verdict::kUnknown) {
        EXPECT_TRUE(oracle.verdicts.count(x)) << "round " << round;
      }
    }
  }
}

TEST(ThreadRuntime, AppMessageCountMatchesTrace) {
  AtomRegistry reg = paper::make_registry(2);
  SystemTrace trace = generate_trace(small_params(2));
  int comm_actions = 0;
  for (const auto& pt : trace.procs) {
    comm_actions += pt.count(TraceAction::Kind::kComm);
  }
  ThreadRuntime rt(trace, &reg, fast_config());
  rt.run();
  EXPECT_EQ(rt.app_messages_sent(),
            static_cast<std::uint64_t>(comm_actions));  // n-1 = 1 receiver
}

TEST(ThreadRuntime, NoCommTraceNeedsNoMessages) {
  AtomRegistry reg = paper::make_registry(2);
  TraceParams params = small_params(2);
  params.comm_enabled = false;
  ThreadRuntime rt(generate_trace(params), &reg, fast_config());
  rt.run();
  EXPECT_EQ(rt.app_messages_sent(), 0u);
}

// Adverse configs: the counter-based quiescence proof must not depend on
// timing headroom.

TEST(ThreadRuntime, ZeroTimeScaleStormSatisfiesContract) {
  // time_scale = 0 collapses every wait and latency to "now": all actions
  // fire immediately, all messages are instantly ripe -- maximum scheduler
  // pressure, zero settle time for a heuristic to hide behind.
  ThreadConfig storm;
  storm.time_scale = 0.0;
  for (int round = 0; round < 3; ++round) {
    AtomRegistry reg = paper::make_registry(3);
    const SharedProperty art =
        testing::admit(reg, "G((P0.p) U (P1.p && P2.p))");
    SystemTrace trace = generate_trace(
        small_params(3, 500 + static_cast<std::uint64_t>(round)));

    ThreadRuntime rt(trace, &reg, storm);
    DecentralizedMonitor dm(property_handle(art), &rt,
                            initial_letters_of(reg, rt.initial_states()));
    rt.set_hooks(&dm);
    rt.run();

    EXPECT_TRUE(dm.all_finished()) << "round " << round;
    Computation comp(rt.history());
    OracleResult oracle = oracle_evaluate(comp, art->automaton());
    SystemVerdict v = dm.result();
    for (Verdict x : oracle.verdicts) {
      EXPECT_TRUE(v.verdicts.count(x)) << "round " << round;
    }
  }
}

TEST(ThreadRuntime, LargeLatencySigmaSatisfiesContract) {
  // Heavily dispersed latencies: deliveries arrive far out of their send
  // order across channels (per-channel FIFO still holds).
  ThreadConfig jittery = fast_config();
  jittery.latency_mu = 0.02;
  jittery.latency_sigma = 2.0;
  AtomRegistry reg = paper::make_registry(3);
  const SharedProperty art = testing::admit(reg, "G((P0.p) U (P1.p && P2.p))");
  SystemTrace trace = generate_trace(small_params(3, 42));

  ThreadRuntime rt(trace, &reg, jittery);
  DecentralizedMonitor dm(property_handle(art), &rt,
                          initial_letters_of(reg, rt.initial_states()));
  rt.set_hooks(&dm);
  rt.run();

  EXPECT_TRUE(dm.all_finished());
  Computation comp(rt.history());
  OracleResult oracle = oracle_evaluate(comp, art->automaton());
  SystemVerdict v = dm.result();
  for (Verdict x : oracle.verdicts) EXPECT_TRUE(v.verdicts.count(x));
}

TEST(ThreadRuntime, QuiescenceIsExactNoWorkAfterRunReturns) {
  // Regression for the deleted sleep-settle loop: run() returning is a
  // proof of quiescence (outstanding work counter hit zero and every node
  // thread joined), so no counter may advance afterwards.
  AtomRegistry reg = paper::make_registry(3);
  const SharedProperty art = testing::admit(reg, "G((P0.p) U (P1.p && P2.p))");
  SystemTrace trace = generate_trace(small_params(3, 77));

  ThreadRuntime rt(trace, &reg, fast_config());
  DecentralizedMonitor dm(property_handle(art), &rt,
                          initial_letters_of(reg, rt.initial_states()));
  rt.set_hooks(&dm);
  rt.run();

  const std::uint64_t events = rt.program_events();
  const std::uint64_t sent = rt.monitor_messages_sent();
  const std::uint64_t processed = rt.monitor_messages_processed();
  EXPECT_TRUE(dm.all_finished());
  EXPECT_GE(processed, sent);  // self-sends are processed but not "sent"
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(rt.program_events(), events);
  EXPECT_EQ(rt.monitor_messages_sent(), sent);
  EXPECT_EQ(rt.monitor_messages_processed(), processed);
}

TEST(ThreadRuntime, FaultyNetworkOverThreadsSatisfiesContract) {
  // The full adversarial stack under real threads: delay spikes, reordering,
  // duplication and bounded drop-with-redelivery on every monitor channel.
  FaultConfig fc;
  fc.delay_prob = 0.2;
  fc.delay_mu = 0.2;
  fc.delay_sigma = 0.1;
  fc.reorder_prob = 0.3;
  fc.dup_prob = 0.15;
  fc.drop_prob = 0.15;
  fc.redelivery_delay = 0.1;
  fc.seed = 11;
  for (int round = 0; round < 3; ++round) {
    AtomRegistry reg = paper::make_registry(3);
    const SharedProperty art =
        testing::admit(reg, "G((P0.p) U (P1.p && P2.p))");
    SystemTrace trace = generate_trace(
        small_params(3, 900 + static_cast<std::uint64_t>(round)));

    ThreadRuntime rt(trace, &reg, fast_config());
    FaultyNetwork net(&rt, 3, fc);
    DecentralizedMonitor dm(property_handle(art), &net,
                            initial_letters_of(reg, rt.initial_states()));
    rt.set_hooks(&dm);
    rt.run();

    EXPECT_TRUE(dm.all_finished()) << "round " << round;
    Computation comp(rt.history());
    OracleResult oracle = oracle_evaluate(comp, art->automaton());
    SystemVerdict v = dm.result();
    for (Verdict x : oracle.verdicts) {
      EXPECT_TRUE(v.verdicts.count(x)) << "round " << round;
    }
    for (Verdict x : v.verdicts) {
      if (x != Verdict::kUnknown) {
        EXPECT_TRUE(oracle.verdicts.count(x)) << "round " << round;
      }
    }
  }
}

TEST(ThreadRuntime, OffThreadSendsAreSafeAndCounted) {
  // Sends from outside any node thread race against the nodes' own sends on
  // the same channels; the per-node send mutex must make both the latency
  // stream and the FIFO clamp safe, and the quiescence counter must cover
  // the injected messages (run() may not return before processing them).
  AtomRegistry reg = paper::make_registry(2);
  SystemTrace trace = generate_trace(small_params(2));
  ThreadRuntime rt(trace, &reg, fast_config());

  auto inject = [&rt](int count) {
    for (int i = 0; i < count; ++i) {
      auto payload = std::make_unique<TerminationMessage>();
      payload->process = 0;
      payload->last_sn = 0;
      rt.send(MonitorMessage{0, 1, std::move(payload)});
    }
  };
  // Pre-run injection, from a foreign thread: the quiescence counter covers
  // these messages, so run() cannot return before processing all of them.
  std::thread pre(inject, 25);
  pre.join();
  // Concurrent injection races the node threads on the sender's channel
  // state (latency RNG + FIFO clamps); messages landing after quiescence
  // may stay unprocessed, but the send path must stay safe.
  std::thread during(inject, 25);
  rt.run();
  during.join();
  // No hooks attached: messages are drained and dropped on receipt.
  EXPECT_EQ(rt.monitor_messages_sent(), 50u);
  EXPECT_GE(rt.monitor_messages_processed(), 25u);
}

TEST(ThreadRuntime, SharedArtifactMatchesUncachedSynthesisVerdicts) {
  // Memo-vs-synthesis differential under real threads: a monitor admitted
  // from the synthesis memo (one shared artifact, property handles aliasing
  // into it from every replica) must meet the contract of the uncached
  // synthesis on the computation it recorded. Thread schedules differ from
  // run to run, and the verdict set follows the recorded computation, so
  // each run is judged by the uncached automaton's oracle on its own
  // history rather than by the other run's verdict set.
  for (paper::Property p : paper::kAllProperties) {
    const int n = 3;
    const std::uint64_t seed = 2015;  // first equivalence-golden seed
    SystemTrace trace = generate_trace(paper::experiment_params(p, n, seed));
    force_final_all_true(trace);

    AtomRegistry reg = paper::make_registry(n);
    const SharedProperty art = std::make_shared<const PropertyArtifact>(
        reg, paper::build_automaton_uncached(p, n, reg));
    ThreadRuntime synth_rt(trace, &reg, fast_config());
    DecentralizedMonitor synth_dm(
        property_handle(art), &synth_rt,
        initial_letters_of(reg, synth_rt.initial_states()));
    synth_rt.set_hooks(&synth_dm);
    synth_rt.run();

    const SharedProperty first =
        paper::shared_property(p, n, paper::make_registry(n));
    const SharedProperty artifact =
        paper::shared_property(p, n, paper::make_registry(n));
    // A memo hit hands out the same artifact, never a copy.
    ASSERT_EQ(artifact.get(), first.get()) << paper::name(p);
    ThreadRuntime memo_rt(trace, &artifact->registry(), fast_config());
    DecentralizedMonitor memo_dm(
        property_handle(artifact), &memo_rt,
        initial_letters_of(artifact->registry(), memo_rt.initial_states()));
    memo_rt.set_hooks(&memo_dm);
    memo_rt.run();

    EXPECT_TRUE(synth_dm.all_finished()) << paper::name(p);
    EXPECT_TRUE(memo_dm.all_finished()) << paper::name(p);
    const std::pair<ThreadRuntime*, DecentralizedMonitor*> runs[] = {
        {&synth_rt, &synth_dm}, {&memo_rt, &memo_dm}};
    for (const auto& [rt, dm] : runs) {
      const OracleResult oracle =
          oracle_evaluate(Computation(rt->history()), art->automaton());
      const SystemVerdict v = dm->result();
      for (Verdict x : oracle.verdicts) {
        EXPECT_TRUE(v.verdicts.count(x)) << paper::name(p);
      }
      for (Verdict x : v.verdicts) {
        if (x != Verdict::kUnknown) {
          EXPECT_TRUE(oracle.verdicts.count(x)) << paper::name(p);
        }
      }
    }
  }
}

TEST(ThreadRuntime, EveryTokenReturnsHome) {
  // Lemma 1 under real threads: once every monitor has finished, each one
  // has retired exactly the tokens it created. A token leaked by the walk
  // would leave the verdict set intact, so only this count catches it.
  const paper::Property p = paper::Property::kD;
  const int n = 3;
  SystemTrace trace = generate_trace(paper::experiment_params(p, n, 2015));
  force_final_all_true(trace);
  const SharedProperty artifact =
      paper::shared_property(p, n, paper::make_registry(n));
  ThreadRuntime rt(trace, &artifact->registry(), fast_config());
  DecentralizedMonitor dm(
      property_handle(artifact), &rt,
      initial_letters_of(artifact->registry(), rt.initial_states()));
  rt.set_hooks(&dm);
  rt.run();

  ASSERT_TRUE(dm.all_finished());
  const SystemVerdict v = dm.result();
  for (const MonitorStats& s : v.per_monitor) {
    EXPECT_EQ(s.tokens_returned, s.tokens_created);
  }
  EXPECT_GT(v.aggregate.tokens_created, 0u);
}

/// Discards every send: the concurrent-verdict test below only needs the
/// monitors' local steps, and a stateless sink is safe from any thread.
class NullNetwork final : public MonitorNetwork {
 public:
  void send(MonitorMessage) override {}
  double now() const override { return 0.0; }
};

TEST(ThreadRuntime, ConcurrentVerdictDeclarationsAreRaceFree) {
  // Two replicas declare a violation at the same moment from two threads,
  // as node threads of ThreadRuntime and SocketRuntime do. Each local event
  // falsifies G(P0.p && P1.p) on its own, so both monitors call the shared
  // verdict callback; the first-violation time must be the minimum, and
  // TSan must see no race on it.
  AtomRegistry reg = paper::make_registry(2);
  const SharedProperty art = testing::admit(reg, "G(P0.p && P1.p)");
  const AtomSet p0 = AtomSet{1} << 0;  // P0.p
  const AtomSet p1 = AtomSet{1} << 2;  // P1.p
  for (int round = 0; round < 50; ++round) {
    NullNetwork net;
    DecentralizedMonitor dm(property_handle(art), &net, {p0, p1});
    const double t0 = 1.0 + (round % 2);
    const double t1 = 2.0 - (round % 2);
    std::atomic<int> ready{0};
    auto falsify = [&](int proc, double now) {
      Event e;
      e.type = EventType::kInternal;
      e.process = proc;
      e.sn = 1;
      e.vc = proc == 0 ? VectorClock{1, 0} : VectorClock{0, 1};
      e.letter = 0;
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      dm.on_local_event(proc, e, now);
    };
    std::thread a(falsify, 0, t0);
    std::thread b(falsify, 1, t1);
    a.join();
    b.join();
    const SystemVerdict v = dm.result();
    EXPECT_TRUE(dm.monitor(0).declared().count(Verdict::kFalse));
    EXPECT_TRUE(dm.monitor(1).declared().count(Verdict::kFalse));
    EXPECT_EQ(v.first_violation_time, 1.0) << "round " << round;
    EXPECT_LT(v.first_satisfaction_time, 0.0);
  }
}

/// Hooks that fail on the first local event any node reports.
class ThrowingHooks final : public MonitorHooks {
 public:
  void on_local_event(int, const Event&, double) override {
    calls.fetch_add(1);
    if (!thrown.exchange(true)) throw std::runtime_error("hook failed");
  }
  void on_local_termination(int, double) override { calls.fetch_add(1); }
  void on_monitor_message(MonitorMessage, double) override {
    calls.fetch_add(1);
  }

  std::atomic<bool> thrown{false};
  std::atomic<std::uint64_t> calls{0};
};

TEST(ThreadRuntime, NodeFailureRethrowsFromRun) {
  // A node thread's exception stops the run: run() joins every node thread
  // and rethrows the original exception instead of reaching
  // std::terminate, as under SocketRuntime. Joined means nothing moves
  // after run() has thrown.
  ThreadConfig storm;
  storm.time_scale = 0.0;
  for (int round = 0; round < 3; ++round) {
    // A configured view cap trips inside a monitor hook.
    const int n = 3;
    const paper::Property p = paper::Property::kD;
    AtomRegistry reg = paper::make_registry(n);
    const SharedProperty art = paper::shared_property(p, n, reg);
    SystemTrace trace = generate_trace(paper::experiment_params(p, n, 2015));
    ThreadRuntime rt(trace, &reg, storm);
    MonitorOptions options;
    options.max_views = 2;
    DecentralizedMonitor dm(property_handle(art), &rt,
                            initial_letters_of(reg, rt.initial_states()),
                            options);
    rt.set_hooks(&dm);
    EXPECT_THROW(rt.run(), MonitorOverflow) << "round " << round;
    const std::uint64_t events = rt.program_events();
    const std::uint64_t processed = rt.monitor_messages_processed();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(rt.program_events(), events);
    EXPECT_EQ(rt.monitor_messages_processed(), processed);
  }
  for (int round = 0; round < 3; ++round) {
    // A hook fails on the first local event.
    AtomRegistry reg = paper::make_registry(3);
    SystemTrace trace = generate_trace(small_params(3, 5));
    ThreadRuntime rt(trace, &reg, storm);
    ThrowingHooks hooks;
    rt.set_hooks(&hooks);
    try {
      rt.run();
      ADD_FAILURE() << "run() returned normally, round " << round;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "hook failed");
    }
    const std::uint64_t calls = hooks.calls.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(hooks.calls.load(), calls);
  }
}

}  // namespace
}  // namespace decmon
