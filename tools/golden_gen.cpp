// Regenerates the monitor's behaviour goldens.
//
//   golden_gen          > tests/monitor/equivalence_goldens.inc
//   golden_gen --walk   > tests/monitor/walk_equivalence_goldens.inc
//
// The default table is the recorded behaviour of the decentralized monitor
// on the paper's properties A-F at n in {3, 5} over three trace seeds: it
// pins verdict sets and the monitor_messages / global_views_created /
// token_hops counters so hot-path refactors can prove byte-identical
// behaviour against the seed implementation.
//
// The --walk table pins the token walk: A-F x n in {3, 4, 5} x six
// postures (kTransit convoys, kExact convoys, streaming GC, dense
// communication, join-jump walks, and views merged by (state, cut) only),
// with the verdict and state sets, every walk-driven counter and the first
// verdict times (as hex floats, so they compare bit-exactly).
//
// The workloads must stay in lockstep with tests/monitor/
// equivalence_golden_test.cpp and walk_equivalence_test.cpp respectively.
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>

#include "decmon/decmon.hpp"

using namespace decmon;

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

std::string state_set_string(const std::set<int>& states) {
  std::string s;
  for (int q : states) {
    if (!s.empty()) s += ',';
    s += std::to_string(q);
  }
  return s;
}

void print_equivalence_goldens() {
  std::printf(
      "// Recorded goldens for the monitor hot path. Regenerate with:\n"
      "//   build/tools/golden_gen > tests/monitor/equivalence_goldens.inc\n"
      "// Columns: property, n, seed, verdict set, monitor_messages,\n"
      "// global_views_created, token_hops.\n");
  for (paper::Property prop : paper::kAllProperties) {
    for (int n : {3, 5}) {
      for (std::uint64_t seed : {2015ull, 2016ull, 2017ull}) {
        MonitorSession session(
            paper::shared_property(prop, n, paper::make_registry(n)));
        TraceParams params = paper::experiment_params(prop, n, seed);
        SystemTrace trace = generate_trace(params);
        force_final_all_true(trace);
        RunResult run = session.run(trace);
        std::printf("{\"%s\", %d, %llu, \"%s\", %llu, %llu, %llu},\n",
                    paper::name(prop).c_str(), n,
                    static_cast<unsigned long long>(seed),
                    verdict_set_string(run.verdict.verdicts).c_str(),
                    static_cast<unsigned long long>(run.monitor_messages),
                    static_cast<unsigned long long>(
                        run.verdict.aggregate.global_views_created),
                    static_cast<unsigned long long>(
                        run.verdict.aggregate.token_hops));
      }
    }
  }
}

// Walk postures, in table order (see run_walk_workload).
constexpr const char* kWalkPostures[] = {"transit", "exact",    "stream16",
                                         "mu1.5",   "joinjump", "nomerge"};

std::uint64_t walk_seed(int n, int posture_index) {
  return 2015 + 5 * static_cast<std::uint64_t>(n - 3) +
         static_cast<std::uint64_t>(posture_index);
}

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

void print_walk_goldens() {
  std::printf(
      "// Recorded token-walk goldens. Regenerate with:\n"
      "//   build/tools/golden_gen --walk > "
      "tests/monitor/walk_equivalence_goldens.inc\n"
      "// Columns: property, n, seed, posture, verdict set, state set,\n"
      "// all_finished, monitor_messages, tokens_created, token_hops,\n"
      "// bytes_sent, global_views_created, peak_global_views,\n"
      "// events_delayed, first violation time, first satisfaction time.\n");
  for (paper::Property prop : paper::kAllProperties) {
    for (int n : {3, 4, 5}) {
      for (int k = 0; k < static_cast<int>(std::size(kWalkPostures)); ++k) {
        // One session per cell, a different trace seed per (n, posture).
        const char* posture = kWalkPostures[k];
        const std::uint64_t seed = walk_seed(n, k);
        const RunResult run = run_walk_workload(prop, n, seed, posture);
        const MonitorStats& a = run.verdict.aggregate;
        std::printf(
            "{\"%s\", %d, %llu, \"%s\", \"%s\", \"%s\", %s, %llu, %llu, "
            "%llu, %llu, %llu, %llu, %llu, %a, %a},\n",
            paper::name(prop).c_str(), n,
            static_cast<unsigned long long>(seed), posture,
            verdict_set_string(run.verdict.verdicts).c_str(),
            state_set_string(run.verdict.states).c_str(),
            run.verdict.all_finished ? "true" : "false",
            static_cast<unsigned long long>(run.monitor_messages),
            static_cast<unsigned long long>(a.tokens_created),
            static_cast<unsigned long long>(a.token_hops),
            static_cast<unsigned long long>(a.bytes_sent),
            static_cast<unsigned long long>(a.global_views_created),
            static_cast<unsigned long long>(a.peak_global_views),
            static_cast<unsigned long long>(a.events_delayed),
            run.verdict.first_violation_time,
            run.verdict.first_satisfaction_time);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--walk") == 0) {
    print_walk_goldens();
  } else {
    print_equivalence_goldens();
  }
  return 0;
}
