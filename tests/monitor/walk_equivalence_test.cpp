// Token-walk equivalence goldens: the monitor's observable behaviour on the
// paper's properties A-F (n in {3, 4, 5}) under six postures -- kTransit
// and kExact frame convoys, streaming GC every 16 events, dense
// communication (comm_mu 1.5), join-jump walks, and views merged only when
// their (state, cut) are equal -- pinned against numbers recorded before
// the walk fast-forward (the first five) and the one-pass view merge (the
// sixth) existed. Every walk-driven output
// is compared exactly: verdict and state sets, all_finished, messages,
// tokens, hops, bytes, views, delayed events and the first verdict times.
// Each run also checks Lemma 1 (tokens_returned == tokens_created).
//
// Regenerate (only when behaviour is *supposed* to change):
//   build/tools/golden_gen --walk > tests/monitor/walk_equivalence_goldens.inc
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "decmon/decmon.hpp"

namespace decmon {
namespace {

struct WalkRow {
  const char* prop;
  int n;
  std::uint64_t seed;
  const char* posture;
  const char* verdicts;  ///< subset of "?TF" in enum order
  const char* states;    ///< comma-separated automaton states
  bool all_finished;
  std::uint64_t monitor_messages;
  std::uint64_t tokens_created;
  std::uint64_t token_hops;
  std::uint64_t bytes_sent;
  std::uint64_t global_views_created;
  std::uint64_t peak_global_views;
  std::uint64_t events_delayed;
  double first_violation;
  double first_satisfaction;
};

constexpr WalkRow kWalkGoldens[] = {
#include "walk_equivalence_goldens.inc"
};

paper::Property property_by_name(const std::string& name) {
  for (paper::Property p : paper::kAllProperties) {
    if (paper::name(p) == name) return p;
  }
  ADD_FAILURE() << "unknown property " << name;
  return paper::Property::kA;
}

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

std::string state_set_string(const std::set<int>& states) {
  std::string s;
  for (int q : states) {
    if (!s.empty()) s += ',';
    s += std::to_string(q);
  }
  return s;
}

// Must stay in lockstep with run_walk_workload() in tools/golden_gen.cpp.
RunResult run_walk_workload(paper::Property prop, int n, std::uint64_t seed,
                            const std::string& posture) {
  SimConfig sim;
  sim.coalesce = posture == "exact" ? CoalesceMode::kExact
                                    : CoalesceMode::kTransit;
  MonitorOptions options;
  if (posture == "stream16") options.gc_interval = 16;
  if (posture == "joinjump") options.walk_mode = WalkMode::kJoinJump;
  if (posture == "nomerge") options.merge_by_state = false;
  const double comm_mu = posture == "mu1.5" ? 1.5 : 3.0;
  MonitorSession session(
      paper::shared_property(prop, n, paper::make_registry(n)));
  SystemTrace trace =
      generate_trace(paper::experiment_params(prop, n, seed, comm_mu));
  force_final_all_true(trace);
  return session.run(trace, sim, options);
}

TEST(WalkEquivalence, MatchesRecordedWalks) {
  ASSERT_EQ(std::size(kWalkGoldens), 6u * 3u * 6u);
  for (const WalkRow& row : kWalkGoldens) {
    SCOPED_TRACE(std::string(row.prop) + " n=" + std::to_string(row.n) +
                 " seed=" + std::to_string(row.seed) + " " + row.posture);
    const RunResult run = run_walk_workload(property_by_name(row.prop), row.n,
                                            row.seed, row.posture);
    const MonitorStats& a = run.verdict.aggregate;
    EXPECT_EQ(verdict_set_string(run.verdict.verdicts), row.verdicts);
    EXPECT_EQ(state_set_string(run.verdict.states), row.states);
    EXPECT_EQ(run.verdict.all_finished, row.all_finished);
    EXPECT_EQ(run.monitor_messages, row.monitor_messages);
    EXPECT_EQ(a.tokens_created, row.tokens_created);
    EXPECT_EQ(a.token_hops, row.token_hops);
    EXPECT_EQ(a.bytes_sent, row.bytes_sent);
    EXPECT_EQ(a.global_views_created, row.global_views_created);
    EXPECT_EQ(a.peak_global_views, row.peak_global_views);
    EXPECT_EQ(a.events_delayed, row.events_delayed);
    EXPECT_EQ(run.verdict.first_violation_time, row.first_violation);
    EXPECT_EQ(run.verdict.first_satisfaction_time, row.first_satisfaction);
    // Lemma 1: every token a monitor creates comes home. A dropped token
    // would not change a verdict set, so only this count catches a walk
    // that leaks one (every posture here is fault-free).
    ASSERT_TRUE(run.verdict.all_finished);
    for (const MonitorStats& s : run.verdict.per_monitor) {
      EXPECT_EQ(s.tokens_returned, s.tokens_created);
    }
  }
}

}  // namespace
}  // namespace decmon
