// Cross-shard determinism: a session's outcome is a pure function of its
// SessionSpec. The same seeded workload grid -- the equivalence-golden grid
// (properties A-F, n in {3, 5}, three trace seeds) -- is run three ways:
//
//   1. directly through MonitorSession::run (what the equivalence goldens
//      pin byte-by-byte),
//   2. through a 1-shard service (serial, admission order),
//   3. through a 4-shard service with stealing (concurrent, arbitrary
//      placement and interleaving),
//
// and every per-session verdict set and counter must be identical. Shard
// count, placement, and stealing may change WHEN a session runs, never
// WHAT it computes -- this is the property that lets the fleet scale out
// without re-validating the monitor.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "decmon/decmon.hpp"

namespace decmon::service {
namespace {

std::string verdict_set_string(const std::set<Verdict>& vs) {
  std::string s;
  for (Verdict v : vs) {
    switch (v) {
      case Verdict::kUnknown: s += '?'; break;
      case Verdict::kTrue: s += 'T'; break;
      case Verdict::kFalse: s += 'F'; break;
    }
  }
  return s;
}

struct Fingerprint {
  std::string verdicts;
  std::uint64_t program_events = 0;
  std::uint64_t monitor_messages = 0;
  std::uint64_t global_views_created = 0;
  std::uint64_t token_hops = 0;

  static Fingerprint of(const RunResult& r) {
    Fingerprint fp;
    fp.verdicts = verdict_set_string(r.verdict.verdicts);
    fp.program_events = r.program_events;
    fp.monitor_messages = r.monitor_messages;
    fp.global_views_created = r.verdict.aggregate.global_views_created;
    fp.token_hops = r.verdict.aggregate.token_hops;
    return fp;
  }
};

// The equivalence-golden grid (tests/monitor/equivalence_golden_test.cpp):
// same properties, process counts, seeds, and run configuration.
std::vector<SessionSpec> golden_grid() {
  std::vector<SessionSpec> specs;
  for (paper::Property prop : paper::kAllProperties) {
    for (int n : {3, 5}) {
      for (std::uint64_t seed : {1, 2, 3}) {
        SessionSpec spec;
        spec.property = prop;
        spec.num_processes = n;
        spec.trace_seed = seed;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

std::vector<Fingerprint> run_through_service(
    const std::vector<SessionSpec>& specs, int shards) {
  ServiceConfig config;
  config.num_shards = shards;
  MonitoringService svc(config);
  for (const SessionSpec& spec : specs) svc.submit(spec);
  svc.drain();
  const auto outcomes = svc.outcomes();
  std::vector<Fingerprint> fps;
  fps.reserve(outcomes.size());
  for (const SessionOutcome& out : outcomes) {
    EXPECT_TRUE(out.ok) << out.error;
    fps.push_back(Fingerprint::of(out.result));
  }
  return fps;
}

TEST(CrossShardDeterminism, OneShardSerialMatchesFourShardsConcurrent) {
  const std::vector<SessionSpec> specs = golden_grid();

  // Reference: the facade, exactly as the goldens drive it.
  std::vector<Fingerprint> direct;
  for (const SessionSpec& spec : specs) {
    MonitorSession session(
        paper::shared_property(spec.property, spec.num_processes,
                               paper::make_registry(spec.num_processes)));
    TraceParams params = paper::experiment_params(
        spec.property, spec.num_processes, spec.trace_seed, spec.comm_mu,
        spec.comm_enabled, spec.internal_events);
    SystemTrace trace = generate_trace(params);
    force_final_all_true(trace);
    direct.push_back(Fingerprint::of(session.run(trace)));
  }

  const std::vector<Fingerprint> serial = run_through_service(specs, 1);
  const std::vector<Fingerprint> sharded = run_through_service(specs, 4);

  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(sharded.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(paper::name(specs[i].property) + " n=" +
                 std::to_string(specs[i].num_processes) + " seed=" +
                 std::to_string(specs[i].trace_seed));
    EXPECT_EQ(serial[i].verdicts, direct[i].verdicts);
    EXPECT_EQ(serial[i].program_events, direct[i].program_events);
    EXPECT_EQ(serial[i].monitor_messages, direct[i].monitor_messages);
    EXPECT_EQ(serial[i].global_views_created, direct[i].global_views_created);
    EXPECT_EQ(serial[i].token_hops, direct[i].token_hops);

    EXPECT_EQ(sharded[i].verdicts, serial[i].verdicts);
    EXPECT_EQ(sharded[i].program_events, serial[i].program_events);
    EXPECT_EQ(sharded[i].monitor_messages, serial[i].monitor_messages);
    EXPECT_EQ(sharded[i].global_views_created,
              serial[i].global_views_created);
    EXPECT_EQ(sharded[i].token_hops, serial[i].token_hops);
  }
}

// Streaming posture over the same golden grid: the direct facade run and
// both service shapes must agree on everything (the streaming run is just as
// deterministic as the plain one), and its verdict sets must match the
// non-streaming reference -- GC never changes what is monitored, only how
// much history is retained while doing it.
TEST(CrossShardDeterminism, StreamingPostureIsDeterministicAcrossShards) {
  std::vector<SessionSpec> specs = golden_grid();
  for (SessionSpec& spec : specs) {
    spec.options.gc_interval = 4;
  }

  std::vector<Fingerprint> direct;
  std::vector<std::string> plain_verdicts;
  for (const SessionSpec& spec : specs) {
    MonitorSession session(
        paper::shared_property(spec.property, spec.num_processes,
                               paper::make_registry(spec.num_processes)));
    TraceParams params = paper::experiment_params(
        spec.property, spec.num_processes, spec.trace_seed, spec.comm_mu,
        spec.comm_enabled, spec.internal_events);
    SystemTrace trace = generate_trace(params);
    force_final_all_true(trace);
    plain_verdicts.push_back(
        verdict_set_string(session.run(trace).verdict.verdicts));
    direct.push_back(Fingerprint::of(session.run(trace, {}, spec.options)));
  }

  const std::vector<Fingerprint> serial = run_through_service(specs, 1);
  const std::vector<Fingerprint> sharded = run_through_service(specs, 4);

  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(sharded.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(paper::name(specs[i].property) + " n=" +
                 std::to_string(specs[i].num_processes) + " seed=" +
                 std::to_string(specs[i].trace_seed));
    // Verdict equivalence across postures (the PR's acceptance criterion).
    EXPECT_EQ(direct[i].verdicts, plain_verdicts[i]);
    // Full determinism within the streaming posture.
    EXPECT_EQ(serial[i].verdicts, direct[i].verdicts);
    EXPECT_EQ(serial[i].program_events, direct[i].program_events);
    EXPECT_EQ(serial[i].monitor_messages, direct[i].monitor_messages);
    EXPECT_EQ(serial[i].global_views_created, direct[i].global_views_created);
    EXPECT_EQ(serial[i].token_hops, direct[i].token_hops);
    EXPECT_EQ(sharded[i].verdicts, serial[i].verdicts);
    EXPECT_EQ(sharded[i].program_events, serial[i].program_events);
    EXPECT_EQ(sharded[i].monitor_messages, serial[i].monitor_messages);
    EXPECT_EQ(sharded[i].global_views_created,
              serial[i].global_views_created);
    EXPECT_EQ(sharded[i].token_hops, serial[i].token_hops);
  }
}

TEST(CrossShardDeterminism, MemoAdmittedShardsMatchUncachedSynthesis) {
  // The 4-shard service warms every catalog through shared_property: with
  // a cleared memo the first shard to need a property synthesizes it and
  // every later admission is a memo hit on that one artifact. Reference
  // legs here deliberately bypass the memo (build_automaton_uncached), so
  // agreement proves memo-served artifacts behave exactly like fresh
  // synthesis through the full sharded path.
  const std::vector<SessionSpec> specs = golden_grid();

  std::vector<Fingerprint> uncached;
  for (const SessionSpec& spec : specs) {
    AtomRegistry reg = paper::make_registry(spec.num_processes);
    MonitorAutomaton automaton = paper::build_automaton_uncached(
        spec.property, spec.num_processes, reg);
    MonitorSession session(std::move(reg), std::move(automaton));
    TraceParams params = paper::experiment_params(
        spec.property, spec.num_processes, spec.trace_seed, spec.comm_mu,
        spec.comm_enabled, spec.internal_events);
    SystemTrace trace = generate_trace(params);
    force_final_all_true(trace);
    uncached.push_back(Fingerprint::of(session.run(trace)));
  }

  paper::synthesis_cache_clear();
  const std::vector<Fingerprint> sharded = run_through_service(specs, 4);

  ASSERT_EQ(sharded.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(paper::name(specs[i].property) + " n=" +
                 std::to_string(specs[i].num_processes) + " seed=" +
                 std::to_string(specs[i].trace_seed));
    EXPECT_EQ(sharded[i].verdicts, uncached[i].verdicts);
    EXPECT_EQ(sharded[i].program_events, uncached[i].program_events);
    EXPECT_EQ(sharded[i].monitor_messages, uncached[i].monitor_messages);
    EXPECT_EQ(sharded[i].global_views_created, uncached[i].global_views_created);
    EXPECT_EQ(sharded[i].token_hops, uncached[i].token_hops);
  }
}

TEST(CrossShardDeterminism, RepeatedShardedRunsAgree) {
  // Two concurrent 3-shard runs of a comm-heavy cell family: placement and
  // interleaving differ run to run, fingerprints must not.
  std::vector<SessionSpec> specs;
  for (std::uint64_t seed = 10; seed < 22; ++seed) {
    SessionSpec spec;
    spec.property = paper::Property::kD;
    spec.num_processes = 5;
    spec.trace_seed = seed;
    spec.sim.coalesce = CoalesceMode::kTransit;
    specs.push_back(spec);
  }
  const std::vector<Fingerprint> a = run_through_service(specs, 3);
  const std::vector<Fingerprint> b = run_through_service(specs, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("seed=" + std::to_string(specs[i].trace_seed));
    EXPECT_EQ(a[i].verdicts, b[i].verdicts);
    EXPECT_EQ(a[i].program_events, b[i].program_events);
    EXPECT_EQ(a[i].monitor_messages, b[i].monitor_messages);
    EXPECT_EQ(a[i].global_views_created, b[i].global_views_created);
    EXPECT_EQ(a[i].token_hops, b[i].token_hops);
  }
}

}  // namespace
}  // namespace decmon::service
