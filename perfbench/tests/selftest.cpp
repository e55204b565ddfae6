// Self-tests of the benchmark: the verdict checks catch a corrupted verdict
// set (and the failure count a workload run reports becomes nonzero), and
// the timing decorators are transparent.
//
//   perfbench_selftest        (also: ctest in the benchmark's build tree,
//                              or python3 perfbench/run.py --self-test)
#include <cstdio>
#include <string>

#include "session.hpp"
#include "workloads.hpp"

namespace {

using namespace decmon;
using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

SessionInput input(paper::Property p, int n, double comm_mu,
                   std::uint64_t seed) {
  return SessionInput{p, paper::shared_property(p, n, paper::make_registry(n)),
                      make_trace(p, n, comm_mu, seed), seed};
}

/// Replace the monitors' verdicts with the opposite definite verdict.
void corrupt(SessionResult& r) {
  const bool says_false = r.verdict.verdicts.count(Verdict::kFalse) > 0;
  r.verdict.verdicts = {says_false ? Verdict::kTrue : Verdict::kFalse};
}

void test_oracle_contract() {
  const std::set<Verdict> f = {Verdict::kFalse};
  const std::set<Verdict> fq = {Verdict::kFalse, Verdict::kUnknown};
  CHECK(oracle_contract(f, f).empty());
  CHECK(oracle_contract(f, fq).empty());  // monitors may add '?'
  CHECK(!oracle_contract(fq, f).empty());  // incomplete
  CHECK(!oracle_contract(f, {Verdict::kTrue, Verdict::kFalse}).empty());
}

void test_oracle_check_catches_corruption() {
  const SessionInput in = input(paper::Property::kD, 3, 3.0, 11);
  SessionResult r = run_sim(in, false, true);
  CHECK(r.verdict.all_finished);
  CHECK(check_oracle(r, in.artifact->automaton()).empty());
  corrupt(r);
  CHECK(!check_oracle(r, in.artifact->automaton()).empty());
}

void test_decorators_are_transparent() {
  const SessionInput in = input(paper::Property::kF, 3, 3.0, 12);
  const SessionResult plain = run_sim(in, false, false);
  const SessionResult traced = run_sim(in, true, false);
  CHECK(check_same_counts(plain, traced).empty());
  CHECK(traced.layers.token_calls > 0);
  CHECK(traced.layers.event_calls > 0);
  CHECK(traced.layers.send_calls > 0);
  CHECK(traced.layers.send_units >= traced.layers.send_calls);
  CHECK(traced.layers.send_outside_hooks == 0);
  CHECK(traced.layers.hook_ns() <= static_cast<std::uint64_t>(
                                       traced.run_ms * 1e6));
}

void test_socket_session_passes_replay_check() {
  const SessionInput in = input(paper::Property::kD, 3, 1.5, 13);
  SessionResult r = run_socket(in, true, true);
  CHECK(r.verdict.all_finished);
  CHECK(r.wire_bytes > 0);
  CHECK(r.layers.send_outside_hooks == 0);
  const MonitorSession session(in.artifact);
  CHECK(check_replay(r, session, 5).empty());
  corrupt(r);
  CHECK(!check_replay(r, session, 5).empty());
}

void test_workload_failure_count(const std::string& workload) {
  RunOptions opt;
  opt.workload = workload;
  opt.seed = 3;
  opt.seconds = 0.3;
  const Report clean = run_workload(opt);
  CHECK(clean.attempted > 0);
  CHECK(clean.failed == 0);
  CHECK(clean.metrics.count("events_per_s") == 1);

  opt.tamper = corrupt;
  const Report bad = run_workload(opt);
  CHECK(bad.failed > 0);  // failed_frac = failed / attempted > 0
  CHECK(!bad.failures.empty());
}

void test_traced_run_reports_layers() {
  RunOptions opt;
  opt.workload = "sim-tokens";
  opt.seed = 4;
  opt.seconds = 0.3;
  opt.traced = true;
  const Report r = run_workload(opt);
  CHECK(r.failed == 0);
  CHECK(r.metrics.at("monitor.token.self_share") > 0.5);
  CHECK(r.metrics.at("monitor.token.calls_per_event") > 0.0);
}

}  // namespace

int main() {
  test_oracle_contract();
  test_oracle_check_catches_corruption();
  test_decorators_are_transparent();
  test_socket_session_passes_replay_check();
  test_workload_failure_count("sim-events");
  test_workload_failure_count("socket-n3");
  test_traced_run_reports_layers();
  if (g_failures) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
